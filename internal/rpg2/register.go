package rpg2

import (
	"prophet/internal/registry"
)

// The rpg2 scheme self-registers the full profile-and-tune methodology.
func init() {
	registry.MustRegister("rpg2", func() registry.Scheme {
		return registry.Func(func(ctx registry.Context) (registry.Result, error) {
			res := Evaluate(ctx.Sim, ctx.Opts, ctx.Factory, ctx.Baseline)
			return registry.Result{
				Stats: res.Stats,
				Meta:  map[string]int{"kernels": res.Kernels, "distance": res.Distance},
			}, nil
		})
	})
}
