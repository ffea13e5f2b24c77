package lint

// checkHotPathTransitive extends the hotpath allocation contract
// through the call graph: a //dpr:hotpath function must not call a
// callee that allocates, however deep the allocation hides. The base
// rule catches `make` written inside the hot function; this one
// catches the helper that was extracted last month and quietly grew a
// fmt.Sprintf three frames down.
//
// A function's allocation summary is the same construct list the base
// rule enforces (make/new, map and slice literals, closures, fresh
// append, fmt calls, string concatenation and conversions, go
// statements), observed in its own declaration scope, propagated to
// callers over synchronous non-literal call edges. Diagnostics carry
// the witness chain — hot fn → helper → helper — down to the
// allocating line, so the fix site is in the message.
func (prog *program) checkHotPathTransitive() {
	g := prog.graph
	allocs := g.propagate(prog.allocFacts())

	for _, n := range g.nodes {
		if !n.pass.isHotPath(n.decl) {
			continue
		}
		reported := make(map[*funcNode]bool)
		for _, c := range n.calls {
			if c.viaGo || c.inLit || reported[c.callee] {
				continue
			}
			f, ok := allocs[c.callee][allocMark{}]
			if !ok {
				continue
			}
			reported[c.callee] = true
			prog.report(RuleHotPathTrans, c.pos,
				"hot-path function %s calls %s, which allocates (%s)",
				n.decl.Name.Name, c.callee.shortName(),
				prog.witnessChain(allocs, allocMark{}, fact{pos: c.pos, via: c.callee, desc: f.desc}))
		}
	}
}

// allocMark is the single fact key for "this function allocates".
type allocMark struct{}

// allocFacts records, per function, the first allocating construct in
// its declaration scope (allocSites, panic arguments skipped). Nested
// literals are opaque (they are themselves the allocation; what they
// do inside runs on their own schedule), and go statements count as
// allocations outright.
func (prog *program) allocFacts() map[*funcNode]factSet {
	direct := make(map[*funcNode]factSet)
	for _, n := range prog.graph.nodes {
		n.pass.allocSites(n.decl.Body, true, func(s allocSite) bool {
			direct[n] = factSet{allocMark{}: {pos: s.pos, desc: s.desc}}
			return false
		})
	}
	return direct
}
