package sched

import (
	"fmt"
	"sort"

	"repro/internal/mptcp"
)

// factories maps scheduler names to constructors. Each connection gets a
// fresh instance (schedulers carry per-connection state). The registry
// is the paper's comparison set — the kernel default minRTT, ECF, DAPS
// and BLEST — plus "wifi-only", Table 1's single-path reference; a
// scheduler no catalog experiment reads does not belong here.
var factories = map[string]mptcp.SchedulerFactory{
	"minrtt":    func() mptcp.Scheduler { return newMinRTT() },
	"ecf":       func() mptcp.Scheduler { return NewECF() },
	"blest":     func() mptcp.Scheduler { return NewBLEST() },
	"daps":      func() mptcp.Scheduler { return newDAPS() },
	"wifi-only": func() mptcp.Scheduler { return newSinglePath(0) },
}

// Factory returns the constructor for a scheduler name.
func Factory(name string) (mptcp.SchedulerFactory, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return f, nil
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
