package engine

import (
	"fmt"
	"reflect"
	"time"
)

// StatsSnapshot is a consistent point-in-time view of an engine's
// counters, and the single declaration of every one of them: each field
// carries its JSON key, its Prometheus series name and its help text as
// struct tags. /v1/stats, /v1/verify/batch and /v1/cluster/stats render it
// through encoding/json, /metrics through StatFields, and every sum of two
// snapshots — a routed batch, the cluster totals — goes through Add, so a
// new counter is one field here plus the line in addResult that feeds it.
//
// Every field is an int64. A series name ending in _total is a counter;
// any other name is a gauge. The memo counters (norm, obligation) are
// lifetime counts of the underlying tables.
type StatsSnapshot struct {
	Pairs       int64 `json:"pairs" metric:"spes_engine_pairs_total" help:"Pairs verified by the engine (lifetime)."`
	Equivalent  int64 `json:"equivalent" metric:"spes_engine_equivalent_total" help:"Pairs proved equivalent (lifetime)."`
	NotProved   int64 `json:"not_proved" metric:"spes_engine_not_proved_total" help:"Pairs not proved (lifetime)."`
	Unsupported int64 `json:"unsupported" metric:"spes_engine_unsupported_total" help:"Pairs using unsupported SQL (lifetime)."`
	// Refuted is 0 unless Options.RefuteBudget > 0.
	Refuted   int64 `json:"refuted" metric:"spes_engine_refuted_total" help:"Pairs proved inequivalent by a counterexample witness (lifetime)."`
	Deduped   int64 `json:"deduped" metric:"spes_engine_deduped_total" help:"Pairs that shared the verdict of a structurally identical pair verified in the same batch (lifetime)."`
	Timeouts  int64 `json:"timeouts" metric:"spes_engine_timeouts_total" help:"Pairs degraded by the verification deadline (lifetime)."`
	Cancelled int64 `json:"cancelled" metric:"spes_engine_cancelled_total" help:"Pairs aborted by context cancellation (lifetime)."`

	// Panics and WatchdogAborts are robustness events: the process
	// survived, the verdicts degraded to NotProved.
	Panics         int64 `json:"panics" metric:"spes_panics_recovered_total" help:"Panics recovered into degraded verdicts or HTTP 500s instead of crashing the process (lifetime)."`
	WatchdogAborts int64 `json:"watchdog_aborts" metric:"spes_watchdog_aborts_total" help:"Verifications abandoned by the watchdog after running past deadline-plus-grace (lifetime)."`

	SolverQueries  int64 `json:"solver_queries" metric:"spes_engine_solver_queries_total" help:"SMT queries issued (lifetime)."`
	SolverSessions int64 `json:"solver_sessions" metric:"spes_solver_sessions_total" help:"Incremental solver sessions opened (lifetime)."`
	PrefixReuse    int64 `json:"prefix_reuse" metric:"spes_solver_prefix_reuse_total" help:"Obligation checks that reused an already-encoded session prefix (lifetime)."`
	ModelRounds    int64 `json:"model_rounds" metric:"spes_engine_model_rounds_total" help:"Propositional models the solvers examined (lifetime)."`

	// TermNodes is the CURRENT epoch's node count (0 with interning
	// disabled); InternerEpochs lets a dashboard tell "the gauge fell
	// because we rotated" from "the workload shrank".
	TermNodes      int64 `json:"term_nodes" metric:"spes_engine_term_nodes" help:"Distinct term nodes in the engine's current interner epoch; with rotation on (TermNodeHighWater > 0) this stays bounded by the high-water mark, and the engine's live term memory is proportional to it once retired epochs are collected."`
	InternerEpochs int64 `json:"interner_epochs" metric:"spes_engine_interner_epochs_total" help:"Interner epochs opened, including the initial one; increments when the term DAG crosses the rotation high-water mark."`

	StoreHits        int64 `json:"store_hits" metric:"spes_store_hits_total" help:"Obligations answered from the durable verdict store (lifetime)."`
	StoreMisses      int64 `json:"store_misses" metric:"spes_store_misses_total" help:"Durable-store lookups that found no verdict (lifetime)."`
	SessionEvictions int64 `json:"session_evictions" metric:"spes_engine_session_evictions_total" help:"Verify sessions evicted from the bounded session tables, by LRU pressure or epoch rotation (lifetime)."`
	WitnessHits      int64 `json:"witness_hits" metric:"spes_store_witness_hits_total" help:"Refutations answered by a stored (possibly replicated) witness that replayed, instead of a fresh search (lifetime)."`
	// RefuteExhaustedHits explains a not-proved pair served warm: a stored
	// record says a search under the same options already ran its whole
	// budget for the pair without a witness.
	RefuteExhaustedHits int64 `json:"refute_exhausted_hits" metric:"spes_store_refute_exhausted_hits_total" help:"Refutation searches skipped because the store records that a search under the same options already exhausted its budget on the pair without a witness (lifetime)."`

	NormHits         int64 `json:"norm_hits" metric:"spes_engine_norm_memo_hits_total" help:"Normalization memo hits (lifetime)."`
	NormMisses       int64 `json:"norm_misses" metric:"spes_engine_norm_memo_misses_total" help:"Normalization memo misses (lifetime)."`
	ObligationHits   int64 `json:"obligation_hits" metric:"spes_engine_obligation_cache_hits_total" help:"Obligation cache hits (lifetime)."`
	ObligationMisses int64 `json:"obligation_misses" metric:"spes_engine_obligation_cache_misses_total" help:"Obligation cache misses (lifetime)."`
}

// ObligationHitRate returns the obligation-cache hit fraction in [0,1].
func (s StatsSnapshot) ObligationHitRate() float64 {
	total := s.ObligationHits + s.ObligationMisses
	if total == 0 {
		return 0
	}
	return float64(s.ObligationHits) / float64(total)
}

// Add sums o into s field by field. Gauges sum too: a cluster's term DAG
// is the sum of its shards', provided each shard is added once (see
// Split).
func (s *StatsSnapshot) Add(o StatsSnapshot) { s.combine(o, 1) }

// Split separates a batch's stats into the batch's own work and the
// engine state it reports as the engine's current values (TermNodes,
// InternerEpochs). Summing several batches of one engine adds their work
// but must take its state once.
func (s StatsSnapshot) Split() (work, state StatsSnapshot) {
	state.TermNodes, state.InternerEpochs = s.TermNodes, s.InternerEpochs
	work = s
	work.TermNodes, work.InternerEpochs = 0, 0
	return work, state
}

// Sub subtracts o from s field by field: the delta between two snapshots
// of one engine.
func (s *StatsSnapshot) Sub(o StatsSnapshot) { s.combine(o, -1) }

func (s *StatsSnapshot) combine(o StatsSnapshot, sign int64) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		f := dst.Field(i)
		f.SetInt(f.Int() + sign*src.Field(i).Int())
	}
}

// addResult counts one completed pair.
func (s *StatsSnapshot) addResult(r Result) {
	s.Pairs++
	switch r.Verdict {
	case Equivalent:
		s.Equivalent++
	case Unsupported:
		s.Unsupported++
	case Refuted:
		s.Refuted++
	default:
		s.NotProved++
	}
	if r.Deduped {
		s.Deduped++
	}
	if r.TimedOut {
		s.Timeouts++
	}
	if r.Cancelled {
		s.Cancelled++
	}
	if r.Panicked {
		s.Panics++
	}
	if r.WatchdogAbort {
		s.WatchdogAborts++
	}
	st := r.Stats
	s.SolverQueries += int64(st.SolverQueries)
	s.SolverSessions += int64(st.SolverSessions)
	s.PrefixReuse += int64(st.PrefixReuse)
	s.ModelRounds += int64(st.ModelRounds)
	s.StoreHits += int64(st.StoreHits)
	s.StoreMisses += int64(st.StoreMisses)
	s.SessionEvictions += int64(st.SessionEvicts)
	s.WitnessHits += int64(st.WitnessHits)
	s.RefuteExhaustedHits += int64(st.ExhaustedHits)
}

// StatField describes one StatsSnapshot field, as its struct tags declare
// it.
type StatField struct {
	JSON   string // key in every JSON rendering
	Metric string // Prometheus series name
	Help   string // Prometheus help text
	index  int
}

// Value reads the field from s.
func (f StatField) Value(s *StatsSnapshot) int64 {
	return reflect.ValueOf(s).Elem().Field(f.index).Int()
}

var statFields = func() []StatField {
	t := reflect.TypeOf(StatsSnapshot{})
	out := make([]StatField, t.NumField())
	for i := range out {
		sf := t.Field(i)
		f := StatField{JSON: sf.Tag.Get("json"), Metric: sf.Tag.Get("metric"), Help: sf.Tag.Get("help"), index: i}
		if sf.Type.Kind() != reflect.Int64 || f.JSON == "" || f.Metric == "" || f.Help == "" {
			panic(fmt.Sprintf("engine: StatsSnapshot.%s needs type int64 and json, metric and help tags", sf.Name))
		}
		out[i] = f
	}
	return out
}()

// StatFields lists every StatsSnapshot field in declaration order.
func StatFields() []StatField { return statFields }

// BatchStats aggregates a batch run: the batch's own counters plus the
// pool size and wall time.
type BatchStats struct {
	StatsSnapshot
	Workers int
	Wall    time.Duration
}

// PairsPerSec returns batch throughput.
func (s BatchStats) PairsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Pairs) / s.Wall.Seconds()
}
