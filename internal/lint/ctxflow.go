package lint

// CtxFlowRule checks context discipline in the long-running service
// layers — internal/server (the simulation service) and internal/runner
// (the study worker pool). Those are the only places dirsim keeps
// goroutines alive across requests, and a goroutine there that can
// observe neither a context nor a channel outlives graceful shutdown:
// the process drains, the test binary exits, and the work keeps running
// (or leaks) with no way to tell.
//
// Two findings, both computed from the module call graph:
//
//   - a go statement whose spawned subtree sees no context, no channel
//     operation and no WaitGroup, and none of whose callees (transitively)
//     observes a context or is bounded by a channel — nothing can ever
//     stop it;
//   - a function that accepts a context.Context but never uses it —
//     callers believe cancellation propagates, and it silently does not.
type CtxFlowRule struct{}

// ctxFlowPkgs are the module-relative packages the rule applies to: the
// layers that own long-lived goroutines.
var ctxFlowPkgs = []string{"internal/cellexec", "internal/cluster", "internal/runner", "internal/server"}

// Name implements Rule.
func (CtxFlowRule) Name() string { return "ctxflow" }

// Doc implements Rule.
func (CtxFlowRule) Doc() string {
	return "server/runner goroutine with no cancellation path, or a context parameter that is never observed"
}

// CheckModule implements ModuleRule.
func (CtxFlowRule) CheckModule(m *Module) []Finding {
	var out []Finding
	for _, rel := range ctxFlowPkgs {
		p := m.Package(rel)
		if p == nil {
			continue
		}
		for _, fi := range m.Funcs() {
			if fi.Pkg != p {
				continue
			}
			for _, sp := range fi.Spawns {
				if spawnBounded(m, sp) {
					continue
				}
				out = append(out, p.findingf(sp.Pos, "ctxflow",
					"goroutine spawned in %s observes no context, channel or WaitGroup — nothing can stop it on shutdown; thread a context or bound it with a channel",
					fi.Decl.Name.Name))
			}
			if fi.AcceptsContext && !fi.ObservesContext {
				out = append(out, p.findingf(fi.Decl.Name.Pos(), "ctxflow",
					"%s accepts a context.Context but never observes it — callers expect cancellation to propagate here",
					fi.Decl.Name.Name))
			}
		}
	}
	return out
}

// spawnBounded reports whether a spawned goroutine has some lifecycle
// signal: it sees a context, a channel operation or a WaitGroup directly,
// or one of its callees transitively observes a context or has its
// lifetime bounded by a channel (range/receive/select).
func spawnBounded(m *Module, sp Spawn) bool {
	if sp.SeesContext || sp.SeesChannel || sp.SeesWaitGroup {
		return true
	}
	for _, fi := range m.Reachable(sp.Callees...) {
		if fi.ObservesContext || fi.RangesOverChannel {
			return true
		}
	}
	return false
}
