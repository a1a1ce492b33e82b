package core

import (
	"fmt"

	"prophet/internal/registry"
)

// core self-registers the two schemes it anchors: the no-temporal-prefetching
// baseline every figure normalizes to, which the evaluator has already
// simulated (or served from its cache) for every job, and Prophet itself.
// Prophet's run needs the profile -> learn -> analyze loop, whose analysis
// layer imports this package — so the flow arrives through the
// evaluator-injected Context.Prophet hook rather than a direct import.
func init() {
	registry.MustRegister("baseline", func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			return registry.Result{Stats: ctx.Baseline()}, nil
		})
	})
	registry.MustRegister("prophet", func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			if ctx.Prophet == nil {
				return registry.Result{}, fmt.Errorf("prophet scheme needs a pipeline-capable evaluator (Context.Prophet is nil)")
			}
			st, meta := ctx.Prophet.RunDirect(ctx.Factory)
			return registry.Result{Stats: st, Meta: meta}, nil
		})
	})
}
