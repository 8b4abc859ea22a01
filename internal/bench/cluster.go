package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"spes/internal/cluster"
	"spes/internal/corpus"
	"spes/internal/plan"
	"spes/internal/schema"
	"spes/internal/server"
)

// ClusterReport is the multi-shard router study emitted as the
// BENCH_cluster.json artifact: the production pair stream pushed through
// spes-router onto 1, 2, and 4 local spes-serve shards. What it pins
// across PRs:
//
//   - the router adds negligible overhead (1-shard throughput tracks the
//     direct batch path);
//   - fingerprint routing preserves cache locality — per-shard obligation
//     hit rates stay within a few points of the single-node rate instead
//     of diluting N ways;
//   - verdict sequences are byte-identical at every cluster size.
//
// On a single-core host the shards time-slice one CPU, so wall-clock
// throughput is flat by construction; the Note field records this. The
// locality and identity columns are CPU-count-independent.
type ClusterReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Pairs      int            `json:"pairs"`
	ChunkPairs int            `json:"chunk_pairs"`
	Note       string         `json:"note"`
	Rounds     []ClusterRound `json:"rounds"`

	// Failover is the warm-failover study: kill a shard mid-workload and
	// measure how warm the ring successor starts, with segment replication
	// on versus off.
	Failover *FailoverReport `json:"failover"`

	// Scaling is the GOMAXPROCS>1 pass over the 2-shard round.
	Scaling *ScalingReport `json:"scaling"`
}

// ClusterRound is one shard-count's measurement.
type ClusterRound struct {
	Shards      int     `json:"shards"`
	WallMS      float64 `json:"wall_ms"`
	PairsPerSec float64 `json:"pairs_per_sec"`

	// VerdictsMatchSingle reports whether this round's verdict sequence is
	// identical, element for element, to the 1-shard round's — the
	// soundness half of the study.
	VerdictsMatchSingle bool           `json:"verdicts_match_single_node"`
	Verdicts            map[string]int `json:"verdicts"`

	ObligationHitRate float64            `json:"obligation_hit_rate"`
	Failovers         int64              `json:"failovers"`
	UnplacedPairs     int64              `json:"unplaced_pairs"`
	PerShard          []ClusterShardLoad `json:"per_shard"`
}

// ClusterShardLoad is one shard's slice of a round.
type ClusterShardLoad struct {
	ID                string  `json:"id"`
	Pairs             int64   `json:"pairs"`
	ObligationHitRate float64 `json:"obligation_hit_rate"`
}

// clusterPairStream is BatchPairs at the SQL level: the workload's
// within-cluster ordered pair stream, recurrences included, as wire
// requests — what a router actually receives. Pairs the planner rejects
// outright are skipped (they would measure the 400 path, not routing).
func clusterPairStream(w *corpus.Workload) []server.BatchPairJSON {
	b := plan.NewBuilder(w.Catalog)
	buildable := map[string]bool{}
	ok := func(sql string) bool {
		v, seen := buildable[sql]
		if !seen {
			_, err := b.BuildSQL(sql)
			v = err == nil || plan.Unsupported(err)
			buildable[sql] = v
		}
		return v
	}
	byCluster := map[int][]corpus.WorkloadQuery{}
	var clusterOrder []int
	for _, q := range w.Queries {
		if _, seen := byCluster[q.Cluster]; !seen {
			clusterOrder = append(clusterOrder, q.Cluster)
		}
		byCluster[q.Cluster] = append(byCluster[q.Cluster], q)
	}
	var out []server.BatchPairJSON
	for _, c := range clusterOrder {
		members := byCluster[c]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if ok(members[i].SQL) && ok(members[j].SQL) {
					out = append(out, server.BatchPairJSON{
						ID:   fmt.Sprintf("%d-%d", members[i].ID, members[j].ID),
						SQL1: members[i].SQL,
						SQL2: members[j].SQL,
					})
				}
			}
		}
	}
	return out
}

// RunCluster runs the study: the same pair stream through a router
// fronting 1, 2, and 4 fresh local shards (cold caches each round, so
// rounds are comparable), verdict sequences compared across rounds.
func RunCluster(seed int64, scale float64) (ClusterReport, error) {
	w := corpus.ProductionWorkload(seed, scale)
	stream := clusterPairStream(w)
	// 128 pairs of workload SQL stays comfortably inside the 1 MiB body
	// limit shared by router and shards.
	const chunk = 128
	rep := ClusterReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pairs:      len(stream),
		ChunkPairs: chunk,
		Note: "shards are local processes sharing this host's CPUs; with GOMAXPROCS=1 " +
			"wall-clock scaling is impossible by construction and the study instead pins " +
			"router overhead, per-shard cache locality, and verdict identity",
	}
	var ref []string
	for _, n := range []int{1, 2, 4} {
		round, verdicts, err := runClusterRound(w.Catalog, stream, n, chunk)
		if err != nil {
			return rep, fmt.Errorf("round %d shards: %w", n, err)
		}
		if n == 1 {
			ref = verdicts
		}
		round.VerdictsMatchSingle = equalSeq(ref, verdicts)
		rep.Rounds = append(rep.Rounds, round)
	}

	fo, err := runFailover(w.Catalog, stream, chunk)
	if err != nil {
		return rep, fmt.Errorf("failover study: %w", err)
	}
	rep.Failover = &fo

	sc, err := runScaling(w.Catalog, stream, chunk)
	if err != nil {
		return rep, fmt.Errorf("scaling pass: %w", err)
	}
	rep.Scaling = &sc
	return rep, nil
}

// pushStream pushes the pair stream through a router (or shard) front in
// chunk-sized batches and returns the verdict sequence plus the wall time
// of the whole pass. Shared by the shard-count rounds, the failover study,
// and the scaling pass so every number in the artifact is measured by the
// same client loop.
func pushStream(frontURL string, stream []server.BatchPairJSON, chunk int) ([]string, time.Duration, error) {
	var verdicts []string
	start := time.Now()
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		body, err := json.Marshal(server.BatchRequest{Pairs: stream[off:end]})
		if err != nil {
			return nil, 0, err
		}
		resp, err := http.Post(frontURL+"/v1/verify/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		var br server.BatchResponse
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// The router's membership view (with per-shard last errors)
			// turns "no_shards" from a mystery into a diagnosis.
			view := ""
			if hr, err := http.Get(frontURL + "/healthz"); err == nil {
				hb, _ := io.ReadAll(hr.Body)
				hr.Body.Close()
				view = "; router view: " + string(hb)
			}
			return nil, 0, fmt.Errorf("batch: status %d: %s%s", resp.StatusCode, msg, view)
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if len(br.Results) != end-off {
			return nil, 0, fmt.Errorf("batch: %d results for %d pairs", len(br.Results), end-off)
		}
		for _, r := range br.Results {
			verdicts = append(verdicts, r.Verdict)
		}
	}
	return verdicts, time.Since(start), nil
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runClusterRound(cat *schema.Catalog, stream []server.BatchPairJSON, shards, chunk int) (ClusterRound, []string, error) {
	round := ClusterRound{Shards: shards, Verdicts: map[string]int{}}

	// Each shard gets its own durable store directory — the per-shard
	// warm-state layout a real fleet runs with — and one batch worker, a
	// stand-in for an already-saturated box.
	var backends []*httptest.Server
	var cfg cluster.Config
	cfg.Catalog = cat
	cfg.ProbeInterval = -1
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("s%d", i+1)
		dir, err := os.MkdirTemp("", "spes-bench-cluster-")
		if err != nil {
			return round, nil, err
		}
		defer os.RemoveAll(dir)
		s, err := server.New(server.Config{
			Catalog:      cat,
			ShardID:      id,
			BatchWorkers: 1,
			StorePath:    dir,
		})
		if err != nil {
			return round, nil, err
		}
		ts := httptest.NewServer(s.Handler())
		backends = append(backends, ts)
		srv := s
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		cfg.Shards = append(cfg.Shards, cluster.Shard{ID: id, URL: ts.URL})
	}
	rt := cluster.NewRouter(cfg)
	front := httptest.NewServer(rt.Handler())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()

	verdicts, wall, err := pushStream(front.URL, stream, chunk)
	if err != nil {
		return round, nil, err
	}
	for _, v := range verdicts {
		round.Verdicts[v]++
	}
	round.WallMS = ms(wall)
	round.PairsPerSec = perSec(len(stream), wall)

	// Per-shard load and locality through the router's own aggregation
	// endpoint, so the study also exercises /v1/cluster/stats.
	resp, err := http.Get(front.URL + "/v1/cluster/stats")
	if err != nil {
		return round, nil, err
	}
	var cs cluster.ClusterStats
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil {
		return round, nil, err
	}
	round.ObligationHitRate = cs.Totals.ObligationHitRate
	round.Failovers = cs.Router.Failovers
	round.UnplacedPairs = cs.Router.UnplacedPairs
	for _, sh := range cs.Shards {
		load := ClusterShardLoad{ID: sh.ID}
		if sh.Engine != nil {
			load.Pairs = sh.Engine.Pairs
			load.ObligationHitRate = sh.Engine.ObligationHitRate()
		}
		round.PerShard = append(round.PerShard, load)
	}
	return round, verdicts, nil
}

// RenderCluster formats the router study for the terminal.
func RenderCluster(r ClusterReport) string {
	var b strings.Builder
	b.WriteString("Multi-shard router throughput (spes-router over local spes-serve shards)\n\n")
	fmt.Fprintf(&b, "pairs=%d chunk=%d gomaxprocs=%d\n", r.Pairs, r.ChunkPairs, r.GOMAXPROCS)
	for _, rd := range r.Rounds {
		match := "IDENTICAL"
		if !rd.VerdictsMatchSingle {
			match = "DIVERGED"
		}
		fmt.Fprintf(&b, "shards=%d  %8.1f pairs/s  hit-rate %5.1f%%  failovers=%d unplaced=%d  verdicts vs single-node: %s\n",
			rd.Shards, rd.PairsPerSec, 100*rd.ObligationHitRate, rd.Failovers, rd.UnplacedPairs, match)
		for _, sh := range rd.PerShard {
			fmt.Fprintf(&b, "  %-4s %6d pairs  hit-rate %5.1f%%\n", sh.ID, sh.Pairs, 100*sh.ObligationHitRate)
		}
	}
	if r.Failover != nil {
		b.WriteString("\nWarm failover (kill the busier of 2 shards, replay the stream)\n")
		for _, c := range r.Failover.Cases {
			mode := "replication OFF"
			if c.Replicated {
				mode = "replication ON "
			}
			match := "IDENTICAL"
			if !c.VerdictsIdentical {
				match = "DIVERGED"
			}
			fmt.Fprintf(&b, "%s  dead(%s) steady warm %5.1f%%  successor warm %5.1f%%  gap %+5.1fpt  wall %6.1fms -> %6.1fms (%.2fx)  store-hits=%d  verdicts: %s\n",
				mode, r.Failover.DeadShard, 100*c.DeadSteadyWarmRate, 100*c.SuccessorWarmRate,
				100*c.WarmRateGap, c.SteadyWallMS, c.PostKillWallMS, c.WallRatio,
				c.SuccessorStoreHits, match)
		}
	}
	if r.Scaling != nil {
		fmt.Fprintf(&b, "\nGOMAXPROCS scaling (2 shards, num_cpu=%d)\n", r.Scaling.NumCPU)
		for _, p := range r.Scaling.Passes {
			fmt.Fprintf(&b, "gomaxprocs=%d  %8.1f pairs/s  (%.1f ms)\n", p.GOMAXPROCS, p.PairsPerSec, p.WallMS)
		}
		fmt.Fprintf(&b, "speedup %.2fx\n", r.Scaling.Speedup)
	}
	fmt.Fprintf(&b, "\nnote: %s\n", r.Note)
	return b.String()
}
