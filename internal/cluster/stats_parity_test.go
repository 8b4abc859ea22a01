package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"spes/internal/engine"
	"spes/internal/server"
)

// TestStatsSchemaParity pins the one-schema contract over every
// engine.StatsSnapshot field: the field declares a metric name; each
// shard's /metrics exports that name exactly once, typed by its suffix,
// with the value the shard's /v1/stats reports under the field's JSON key;
// and the /v1/cluster/stats totals equal the sum of the shard snapshots.
func TestStatsSchemaParity(t *testing.T) {
	shards := []*testShard{
		newTestShard(t, "a", server.Config{RefuteBudget: 64}),
		newTestShard(t, "b", server.Config{RefuteBudget: 64}),
	}
	h := newTestRouter(t, shards, nil).Handler()

	// Traffic that moves most fields: recurring pairs (dedupe), a refutable
	// pair, an equivalent pair past the prover's limits (not proved even
	// with refutation on), unsupported SQL, and a repeat single
	// verification (cache hits).
	batch := clusterBatch(40)
	batch.Pairs = append(batch.Pairs, batch.Pairs[:8]...)
	batch.Pairs = append(batch.Pairs,
		server.BatchPairJSON{ID: "refuted", SQL1: "SELECT LOCATION FROM EMP", SQL2: "SELECT DISTINCT LOCATION FROM EMP"},
		server.BatchPairJSON{ID: "not-proved", SQL1: "SELECT LOCATION FROM EMP UNION SELECT LOCATION FROM EMP", SQL2: "SELECT DISTINCT LOCATION FROM EMP"},
		server.BatchPairJSON{ID: "unsupported", SQL1: "SELECT CAST(SALARY AS FLOAT) FROM EMP", SQL2: "SELECT CAST(SALARY AS FLOAT) FROM EMP"})
	if w := postJSON(t, h, "/v1/verify/batch", batch); w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	for i := 0; i < 2; i++ {
		if w := postJSON(t, h, "/v1/verify", server.VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2}); w.Code != 200 {
			t.Fatalf("verify: %d %s", w.Code, w.Body.String())
		}
	}

	fields := engine.StatFields()
	sum := map[string]int64{}
	for _, sh := range shards {
		var stats struct {
			Engine map[string]int64 `json:"engine"`
		}
		getJSON(t, sh.srv.Handler(), "/v1/stats", &stats)
		metrics := get(t, sh.srv.Handler(), "/metrics")
		for _, f := range fields {
			if f.Metric == "" {
				t.Errorf("field %q declares no metric name", f.JSON)
				continue
			}
			want, ok := stats.Engine[f.JSON]
			if !ok {
				t.Errorf("shard %s: /v1/stats has no %q key", sh.id, f.JSON)
				continue
			}
			sum[f.JSON] += want
			typ := "gauge"
			if strings.HasSuffix(f.Metric, "_total") {
				typ = "counter"
			}
			if !strings.Contains(metrics, "# TYPE "+f.Metric+" "+typ+"\n") {
				t.Errorf("shard %s: %s is not exported as a %s", sh.id, f.Metric, typ)
			}
			var samples []string
			for _, line := range strings.Split(metrics, "\n") {
				if strings.HasPrefix(line, f.Metric+" ") || strings.HasPrefix(line, f.Metric+"{") {
					samples = append(samples, line)
				}
			}
			if len(samples) != 1 {
				t.Errorf("shard %s: %s exported %d times: %q", sh.id, f.Metric, len(samples), samples)
				continue
			}
			got, err := strconv.ParseInt(strings.TrimPrefix(samples[0], f.Metric+" "), 10, 64)
			if err != nil || got != want {
				t.Errorf("shard %s: /metrics %q, /v1/stats %s = %d", sh.id, samples[0], f.JSON, want)
			}
		}
	}

	var cs struct {
		Totals map[string]json.Number `json:"totals"`
	}
	getJSON(t, h, "/v1/cluster/stats", &cs)
	nonzero := 0
	for _, f := range fields {
		got, err := cs.Totals[f.JSON].Int64()
		if err != nil || got != sum[f.JSON] {
			t.Errorf("cluster totals %s = %q, want the shards' sum %d", f.JSON, cs.Totals[f.JSON], sum[f.JSON])
		}
		if got != 0 {
			nonzero++
		}
	}
	for _, key := range []string{"pairs", "equivalent", "not_proved", "unsupported", "refuted", "deduped", "solver_queries", "obligation_hits"} {
		if sum[key] == 0 {
			t.Errorf("traffic left %s at 0; the parity check would be vacuous there", key)
		}
	}
	t.Logf("%d of %d fields nonzero after the traffic", nonzero, len(fields))
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
	}
	return w.Body.String()
}

func getJSON(t *testing.T, h http.Handler, path string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(get(t, h, path)), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
