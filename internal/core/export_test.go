package core

import "github.com/isasgd/isasgd/internal/kernel"

// UseReferenceKernel swaps the engine's devirtualized kernel for the
// interface-based reference implementation. Test hook for the
// kernel-equivalence suite.
func (e *Engine) UseReferenceKernel() {
	e.loop.kern = kernel.NewReference(e.m, e.obj)
}

// RunEpochSerial executes one epoch with the workers run sequentially
// in shard order, regardless of Threads(). Updates land in a
// deterministic order, so two engines with identical seeds can be
// compared bitwise even for the multi-worker constructions. Test hook.
func (e *Engine) RunEpochSerial(step float64) {
	for t := range e.shards {
		e.runWorker(t, step)
		e.endOfEpoch(t)
	}
}
