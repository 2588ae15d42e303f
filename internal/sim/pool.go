package sim

import "sync"

// enginePool recycles engines across simulations for callers that
// drive engines directly. The experiment sweep no longer cycles
// engines through here: core pools whole networks, and each pooled
// network owns one engine for its lifetime, reset in place between
// cells. Acquire/Release remains the pooling idiom for standalone
// engine users (harnesses, tools) with the same Reset guarantees.
var enginePool = sync.Pool{New: func() any { return New() }}

// Acquire returns a ready-to-use engine at virtual time zero, reusing a
// pooled one (with its arena and heap already grown to a previous
// simulation's working set) when available. The caller owns the engine
// exclusively until Release.
func Acquire() *Engine { return enginePool.Get().(*Engine) }

// Release resets e and returns it to the pool. The reset invalidates
// every outstanding Timer handle and drops all callback references, so
// the released simulation's objects do not leak through the pool; the
// arena and heap keep their capacity for the next Acquire. The caller
// must not use e (or any Timer obtained from it) afterwards.
func Release(e *Engine) {
	e.Reset()
	enginePool.Put(e)
}
