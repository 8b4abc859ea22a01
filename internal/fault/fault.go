// Package fault is a deterministic fault-injection registry for chaos
// testing the verification pipeline. Production code marks its
// soundness-critical boundaries with named sites (Inject calls); a test
// or an operator arms some or all of those sites with a seeded plan that
// injects panics, delays, and cancellation requests at a configured
// rate. The whole schedule is a pure function of (seed, site, sequence
// number), so a failing chaos run replays exactly under the same seed.
//
// When injection is disabled — the default, and the only state
// production ever runs in — Inject is a single atomic pointer load and a
// predictable branch, so the sites compile down to no-ops in practice.
//
// Soundness: a fault can only ever panic (recovered into a NotProved
// internal-error verdict by the engine and server layers), sleep
// (degrading latency, and eventually tripping deadlines or the
// watchdog), or request cancellation (degrading the verdict to
// NotProved). No fault kind can manufacture an Equivalent verdict; the
// chaos suite enforces that end to end with differential re-execution.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one injection point in the pipeline.
type Site string

// The registered sites. Each one marks a boundary where PR 3's
// robustness layer must degrade, never die.
const (
	// Normalize fires inside the engine worker's normalization step.
	Normalize Site = "normalize"
	// VeriSPJ fires at the top of the verifier's SPJ procedure (Alg. 3),
	// the hot verification path.
	VeriSPJ Site = "veri-spj"
	// SMTModelRound fires in the SMT solver's lazy DPLL(T) model-round
	// loop, the innermost budget-checked loop of a proof.
	SMTModelRound Site = "smt-model-round"
	// CoalesceLeader fires in the server coalescer between claiming a
	// flight and publishing its result — the window where a crash used to
	// strand every waiter.
	CoalesceLeader Site = "coalesce-leader"
	// WorkerSpawn fires when the engine constructs a per-goroutine
	// worker.
	WorkerSpawn Site = "worker-spawn"
	// StoreAppend fires in the durable verdict store between writing a
	// record's header and its payload — the torn-write window. A panic here
	// leaves a truncatable tail; a cancel skips the write entirely (the
	// fsync-skip analog). Either way the store may lose the record but can
	// never corrupt one into a different verdict.
	StoreAppend Site = "store-append"
	// RouterForward fires in the cluster router between picking a shard off
	// the ring and forwarding a sub-batch to it — the window where a shard
	// can die mid-batch. A panic or cancel here is treated as a transport
	// failure: the router fails the sub-batch over to the ring successor,
	// which re-verifies the pairs (sound because verdicts are deterministic
	// functions of the plans; a re-verified pair returns the same answer).
	RouterForward Site = "router-forward"
	// RefuteSearch fires inside the bounded refutation pass, between
	// generating a candidate database and executing the plans over it. A
	// panic or cancel here aborts the search for that pair, degrading a
	// would-be Refuted verdict to NotProved — a fault can lose a witness
	// but can never fabricate one, because every witness that IS returned
	// has already re-executed both plans and observed differing bags.
	RefuteSearch Site = "refute-search"
	// ConstraintAxioms fires in the verifier as it conjoins the catalog's
	// integrity-constraint axioms (key functional dependencies, FK
	// referential containment) into a table's symbolic condition. A panic
	// here unwinds the whole pair into the engine's NotProved recovery; a
	// cancel makes the verifier skip ALL axioms for that table scan. Both
	// only ever weaken the premises of later obligations, so a fault can
	// lose a constraint-dependent proof but can never produce a verdict
	// that leans on a partially-constructed axiom set: each axiom is built
	// whole before it is conjoined, and the site fires before any of them.
	ConstraintAxioms Site = "constraint-axioms"
	// StoreReplicate fires in the replication tailer between fetching a
	// chunk of a peer's log and applying its records to the local store. A
	// panic or cancel here drops the chunk unapplied; the tail position does
	// not advance, so the next round re-fetches the same bytes. Replication
	// is write-behind warm state, not truth: a fault can delay or lose
	// replicated verdicts (the shard re-proves them), but every record that
	// IS applied passed its own checksum and the first-wins key dedupe, so a
	// fault can never fabricate or overwrite a verdict.
	StoreReplicate Site = "store-replicate"
)

// Sites returns every registered site, in stable order.
func Sites() []Site {
	return []Site{Normalize, VeriSPJ, SMTModelRound, CoalesceLeader, WorkerSpawn, StoreAppend, RouterForward, RefuteSearch, ConstraintAxioms, StoreReplicate}
}

// Kind is the species of an injected fault.
type Kind int

const (
	// KindPanic makes Inject panic with an *Error.
	KindPanic Kind = iota
	// KindDelay makes Inject sleep for the configured Delay.
	KindDelay
	// KindCancel makes Inject return Cancel; sites that hold a context
	// treat it as that context being cancelled, sites that do not simply
	// ignore it (documented per call site).
	KindCancel
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Outcome is what Inject asks of its caller. Panics and delays are
// executed by Inject itself, so None and Cancel are the only values.
type Outcome int

const (
	// None means no fault (or a fault Inject already executed itself).
	None Outcome = iota
	// Cancel asks the caller to behave as if its context were cancelled.
	Cancel
)

// Error is the panic value of every injected panic, so recovery layers
// and tests can tell injected faults from genuine bugs.
type Error struct {
	Site Site
	Seq  uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected panic at site %s (seq %d)", e.Site, e.Seq)
}

// Config arms the registry.
type Config struct {
	// Seed drives the deterministic schedule; the same seed over the same
	// per-site call sequence fires the same faults.
	Seed uint64
	// PerMille is how many evaluations per thousand fire a fault at each
	// armed site (clamped to [0, 1000]).
	PerMille int
	// Delay is the sleep length of a delay fault (default 1ms).
	Delay time.Duration
	// Sites lists the armed sites; nil arms all of them.
	Sites []Site
	// Kinds lists the fault kinds to draw from; nil means all three.
	Kinds []Kind
}

// state is the immutable armed configuration; swapped atomically so
// Inject never takes a lock.
type state struct {
	cfg   Config
	kinds []Kind
	sites map[Site]*siteState
}

type siteState struct {
	seq   atomic.Uint64
	fired [numKinds]atomic.Uint64
}

var current atomic.Pointer[state]

// Enable arms the registry. It returns an error for unknown sites or
// kinds, an out-of-range rate, or a nil effective kind set.
func Enable(cfg Config) error {
	known := map[Site]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	armed := cfg.Sites
	if len(armed) == 0 {
		armed = Sites()
	}
	st := &state{cfg: cfg, sites: map[Site]*siteState{}}
	for _, s := range armed {
		if !known[s] {
			return fmt.Errorf("fault: unknown site %q", s)
		}
		st.sites[s] = &siteState{}
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindPanic, KindDelay, KindCancel}
	}
	for _, k := range kinds {
		if k < 0 || k >= numKinds {
			return fmt.Errorf("fault: unknown kind %d", int(k))
		}
	}
	st.kinds = kinds
	if cfg.PerMille < 0 || cfg.PerMille > 1000 {
		return fmt.Errorf("fault: rate %d out of [0,1000]", cfg.PerMille)
	}
	if st.cfg.Delay <= 0 {
		st.cfg.Delay = time.Millisecond
	}
	current.Store(st)
	return nil
}

// Disable disarms every site. Faults already sleeping finish their
// sleep; nothing else fires.
func Disable() { current.Store(nil) }

// Enabled reports whether any site is armed.
func Enabled() bool { return current.Load() != nil }

// Inject evaluates one pass through the site. Disabled (the production
// state), it is one atomic load. Armed, it deterministically either does
// nothing, panics with an *Error, sleeps for the configured delay, or
// returns Cancel for the caller to honor.
func Inject(site Site) Outcome {
	st := current.Load()
	if st == nil {
		return None
	}
	ss, ok := st.sites[site]
	if !ok {
		return None
	}
	seq := ss.seq.Add(1)
	h := mix(st.cfg.Seed, site, seq)
	if h%1000 >= uint64(st.cfg.PerMille) {
		return None
	}
	kind := st.kinds[(h/1000)%uint64(len(st.kinds))]
	ss.fired[kind].Add(1)
	switch kind {
	case KindPanic:
		panic(&Error{Site: site, Seq: seq})
	case KindDelay:
		time.Sleep(st.cfg.Delay)
		return None
	default:
		return Cancel
	}
}

// mix is splitmix64 over the seed, the site name, and the sequence
// number — cheap, well-distributed, and stable across runs.
func mix(seed uint64, site Site, seq uint64) uint64 {
	x := seed ^ seq
	for i := 0; i < len(site); i++ {
		x = x*1099511628211 + uint64(site[i])
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fired returns how many faults (of any kind) have fired at the site
// since it was last armed; 0 when disarmed.
func Fired(site Site) uint64 {
	st := current.Load()
	if st == nil {
		return 0
	}
	ss, ok := st.sites[site]
	if !ok {
		return 0
	}
	var n uint64
	for k := range ss.fired {
		n += ss.fired[k].Load()
	}
	return n
}

// Snapshot returns fired counts per armed site and kind (for test
// assertions that every site actually saw faults).
func Snapshot() map[Site]map[string]uint64 {
	st := current.Load()
	if st == nil {
		return nil
	}
	out := map[Site]map[string]uint64{}
	for s, ss := range st.sites {
		m := map[string]uint64{}
		for k := Kind(0); k < numKinds; k++ {
			if n := ss.fired[k].Load(); n > 0 {
				m[k.String()] = n
			}
		}
		out[s] = m
	}
	return out
}

// ParseSpec parses the operator-facing spec string used by the
// spes-serve -faults flag and the SPES_FAULTS environment variable:
//
//	seed=7,rate=25,delay=2ms,sites=normalize|smt-model-round,kinds=panic|delay
//
// Every field is optional; rate defaults to 10 per mille, sites and
// kinds to all.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{PerMille: 10}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("fault: malformed field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: seed: %v", err)
			}
			cfg.Seed = n
		case "rate":
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("fault: rate: %v", err)
			}
			cfg.PerMille = n
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("fault: delay: %v", err)
			}
			cfg.Delay = d
		case "sites":
			for _, s := range strings.Split(v, "|") {
				cfg.Sites = append(cfg.Sites, Site(s))
			}
		case "kinds":
			for _, s := range strings.Split(v, "|") {
				switch s {
				case "panic":
					cfg.Kinds = append(cfg.Kinds, KindPanic)
				case "delay":
					cfg.Kinds = append(cfg.Kinds, KindDelay)
				case "cancel":
					cfg.Kinds = append(cfg.Kinds, KindCancel)
				default:
					return cfg, fmt.Errorf("fault: unknown kind %q", s)
				}
			}
		default:
			return cfg, fmt.Errorf("fault: unknown field %q", k)
		}
	}
	return cfg, nil
}

// EnableSpec parses and arms a spec string in one step.
func EnableSpec(spec string) error {
	cfg, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	return Enable(cfg)
}

// Describe renders the armed configuration for logs.
func Describe() string {
	st := current.Load()
	if st == nil {
		return "disabled"
	}
	sites := make([]string, 0, len(st.sites))
	for s := range st.sites {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	kinds := make([]string, len(st.kinds))
	for i, k := range st.kinds {
		kinds[i] = k.String()
	}
	return fmt.Sprintf("seed=%d rate=%d/1000 delay=%v sites=%s kinds=%s",
		st.cfg.Seed, st.cfg.PerMille, st.cfg.Delay,
		strings.Join(sites, "|"), strings.Join(kinds, "|"))
}
