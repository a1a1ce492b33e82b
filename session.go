package prophet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prophet/internal/core"
	"prophet/internal/mem"
	"prophet/internal/pipeline"
	"prophet/internal/sim"
)

// Session is the stateful Figure 5 loop bound to an Evaluator: Profile
// inputs under the simplified temporal prefetcher (Step 1), merge counters
// across inputs (Step 3), and Optimize into a Binary (Step 2) that adapts
// to every profiled input. Runs of the optimized binary reuse the
// evaluator's baseline cache, so re-evaluating after each learning loop
// never re-simulates a baseline.
//
// A Session is safe for concurrent use: the profile state is guarded by a
// mutex, so overlapping Profile/Optimize/Run calls serialize rather than
// race (the prophetd daemon exposes sessions to concurrent HTTP clients).
// Profiles still merge in call order — concurrent Profile calls commute in
// the learned weights but interleave nondeterministically, so callers that
// need a reproducible profile order should serialize their own calls.
type Session struct {
	e  *Evaluator
	id uint64

	mu sync.Mutex
	p  *pipeline.Prophet
}

// sessionIDs hands out process-unique session identities.
var sessionIDs atomic.Uint64

// NewSession starts an empty profile-guided session on this evaluator's
// configuration.
func (e *Evaluator) NewSession() *Session {
	return &Session{e: e, id: sessionIDs.Add(1), p: pipeline.NewProphet(e.eng.Config())}
}

// ID is the session's process-unique identity (1, 2, ... in creation
// order). Services that expose sessions as resources key them by it.
func (s *Session) ID() uint64 { return s.id }

// Profile executes Steps 1 and 3 for one input: run it under the simplified
// temporal prefetcher, collect PMU counters, and merge them into the
// persistent profile (Equations 4-5).
func (s *Session) Profile(w Workload) error {
	f, err := w.factory()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.ProfileAndLearn(f())
	return nil
}

// Loops returns how many inputs have been learned.
func (s *Session) Loops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.ProfileState().Loops
}

// Optimize executes Step 2: analyze the merged counters into hints and
// "inject" them, producing the optimized Binary.
func (s *Session) Optimize() Binary {
	s.mu.Lock()
	res := s.p.Analyze()
	s.mu.Unlock()
	return Binary{
		PCHints:    len(res.Hints.PC),
		MetaWays:   res.Hints.MetaWays,
		TPDisabled: res.Hints.DisableTP,
		hints:      res.Hints,
		weights:    res.Weights,
	}
}

// Run executes the optimized binary on a workload, returning metrics
// normalized to the no-temporal-prefetching baseline on the same trace
// (cached across the whole evaluator). Run does not touch the profile
// state — the Binary is self-contained — so concurrent Runs of one session
// proceed in parallel.
func (s *Session) Run(ctx context.Context, b Binary, w Workload) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	f, err := w.factory()
	if err != nil {
		return RunStats{}, err
	}
	cfg := s.e.eng.Config()
	base := s.e.eng.Baseline(w.key(), f)
	engine := core.New(cfg.Prophet, b.hints, b.weights)
	st := sim.RunOpts(cfg.Sim, cfg.Run, engine, nil, nil, nil, f())
	engine.Release()
	return summarize(st, base), nil
}

// Binary represents an optimized binary: the original program plus the
// injected hint instructions and CSR manipulation (Section 4.4).
type Binary struct {
	// PCHints is the number of per-instruction hints injected (<= 128).
	PCHints int
	// MetaWays is the CSR resizing hint (Equation 3).
	MetaWays int
	// TPDisabled reports the Equation 3 disable verdict.
	TPDisabled bool

	hints   core.HintSet
	weights map[mem.Addr]uint64
}

// HintInfo describes one injected per-instruction hint.
type HintInfo struct {
	// PC is the hinted memory instruction.
	PC uint64
	// Insert reports the Equation 1 insertion verdict.
	Insert bool
	// Priority is the Equation 2 replacement priority level.
	Priority int
	// Misses is the PC's profiled miss contribution (hint-buffer weight).
	Misses uint64
}

// Hints lists the injected per-instruction hints, heaviest miss
// contributors first (ties broken by PC for determinism).
func (b Binary) Hints() []HintInfo {
	out := make([]HintInfo, 0, len(b.hints.PC))
	for pc, h := range b.hints.PC {
		out = append(out, HintInfo{
			PC:       uint64(pc),
			Insert:   h.Insert,
			Priority: int(h.Priority),
			Misses:   b.weights[pc],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// String renders the binary's headline shape.
func (b Binary) String() string {
	return fmt.Sprintf("Binary{hints=%d metaWays=%d disableTP=%v}", b.PCHints, b.MetaWays, b.TPDisabled)
}
