// Package valency computationally reproduces the structure of the
// paper's lower-bound proof (§4.1, Appendix A, Fig. 6/Fig. 10): a
// valency analysis of consensus scenarios over the schedule tree.
//
// A schedule prefix is x-valent if every completion decides x, bivalent
// if at least two different decisions are reachable, and violating if
// some completion disagrees internally or returns ⊥. The proof of
// Theorem 3 works by showing the adversary can hold the execution in
// bivalent states forever; dually, for a correct wait-free algorithm
// every maximal path leaves bivalence in bounded depth through a
// "critical" state — a bivalent prefix all of whose successors are
// univalent — where the decisive symmetry-breaking step happens (the
// object O in Fig. 6).
//
// Analyze enumerates the full schedule tree by replay (the simulator
// cannot fork mid-run) and classifies every prefix. Feasible for tiny
// configurations only, like the proofs it mirrors.
package valency

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Outcome reports one completed run of a scenario.
type Outcome struct {
	// Decision is the agreed value, meaningful only when Valid.
	Decision mem.Word
	// Valid is false for runs that disagreed, decided ⊥, or failed.
	Valid bool
}

// Scenario builds a fresh system wired to the chooser and returns a
// function that computes the run's Outcome after Run completes.
type Scenario func(ch sim.Chooser) (*sim.System, func(runErr error) Outcome)

// Result summarizes a schedule-tree valency analysis.
type Result struct {
	// Leaves is the number of maximal schedules explored.
	Leaves int
	// Prefixes is the number of internal decision points.
	Prefixes int
	// Bivalent is the number of bivalent prefixes.
	Bivalent int
	// Critical is the number of critical states: bivalent prefixes whose
	// every child subtree is univalent or violating.
	Critical int
	// MaxBivalentDepth is the deepest bivalent prefix (decision index).
	MaxBivalentDepth int
	// Violations is the number of violating leaves.
	Violations int
	// Decisions counts leaves per decided value.
	Decisions map[mem.Word]int
	// Truncated reports whether the leaf cap stopped the enumeration.
	Truncated bool
}

// String renders a compact summary.
func (r *Result) String() string {
	var vals []mem.Word
	for v := range r.Decisions {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := fmt.Sprintf("leaves=%d prefixes=%d bivalent=%d critical=%d maxBivalentDepth=%d violations=%d decisions=",
		r.Leaves, r.Prefixes, r.Bivalent, r.Critical, r.MaxBivalentDepth, r.Violations)
	for _, v := range vals {
		s += fmt.Sprintf("[%d×%d]", v, r.Decisions[v])
	}
	if r.Truncated {
		s += " (truncated)"
	}
	return s
}

// node is one prefix in the replayed schedule tree.
type node struct {
	children map[int]*node
	outcomes map[mem.Word]int // decided value → leaf count below
	invalid  int              // violating leaves below
	depth    int
	leaf     bool
}

func newNode(depth int) *node {
	return &node{children: map[int]*node{}, outcomes: map[mem.Word]int{}, depth: depth}
}

// count adds one run's outcome to the node.
func (n *node) count(out Outcome) {
	if out.Valid {
		n.outcomes[out.Decision]++
	} else {
		n.invalid++
	}
}

// add records one finished run in the trie: it counts the leaf, walks
// (and grows) the run's decision path from root, and counts the run's
// outcome on every node along it.
func (r *Result) add(root *node, path []int, out Outcome) {
	r.Leaves++
	if out.Valid {
		r.Decisions[out.Decision]++
	} else {
		r.Violations++
	}
	n := root
	n.count(out)
	for _, d := range path {
		child, ok := n.children[d]
		if !ok {
			child = newNode(n.depth + 1)
			n.children[d] = child
		}
		n = child
		n.count(out)
	}
	n.leaf = true
}

// Analyze enumerates up to maxLeaves maximal schedules of the scenario
// and classifies every prefix's valency.
func Analyze(s Scenario, maxLeaves int) *Result {
	if maxLeaves <= 0 {
		maxLeaves = 100000
	}
	root := newNode(0)
	res := &Result{Decisions: map[mem.Word]int{}}

	var prefix []int
	for {
		if res.Leaves >= maxLeaves {
			res.Truncated = true
			break
		}
		script := &sched.Script{Decisions: prefix}
		sys, outcome := s(script)
		out := outcome(sys.Run())
		sys.Close()
		// Past the prefix the script took candidate 0.
		taken := make([]int, len(script.Fanouts))
		copy(taken, prefix)
		res.add(root, taken, out)

		// Advance to the next schedule lexicographically.
		i := len(taken) - 1
		for i >= 0 && taken[i]+1 >= script.Fanouts[i] {
			i--
		}
		if i < 0 {
			break
		}
		prefix = append(taken[:i:i], taken[i]+1)
	}

	res.classify(root)
	return res
}

// AnalyzeBudget analyzes the subtree of schedules deviating from the
// default continue-current-process schedule in at most budget places
// (the same coverage as check.ExploreBudget). Valency classifications
// are relative to the explored subtree.
func AnalyzeBudget(s Scenario, budget, maxLeaves int) *Result {
	if maxLeaves <= 0 {
		maxLeaves = 100000
	}
	root := newNode(0)
	res := &Result{Decisions: map[mem.Word]int{}}

	var rec func(switches []sched.Switch, minIndex int64, budget int)
	rec = func(switches []sched.Switch, minIndex int64, budget int) {
		if res.Leaves >= maxLeaves {
			res.Truncated = true
			return
		}
		ch := &sched.BudgetedSwitch{SwitchAt: switches}
		sys, outcome := s(ch)
		out := outcome(sys.Run())
		sys.Close()
		res.add(root, ch.Taken, out)

		if budget == 0 {
			return
		}
		for d := minIndex; d < int64(len(ch.Fanouts)); d++ {
			for choice := 0; choice < ch.Fanouts[d]; choice++ {
				if choice == ch.Taken[d] {
					continue
				}
				// d lies past every switch so far, so the word stays sorted.
				next := append(switches[:len(switches):len(switches)], sched.Switch{At: d, Choice: choice})
				rec(next, d+1, budget-1)
				if res.Truncated {
					return
				}
			}
		}
	}
	rec(nil, 0, budget)
	res.classify(root)
	return res
}

// classify walks the trie computing the summary statistics.
func (res *Result) classify(root *node) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf && len(n.children) == 0 {
			return
		}
		res.Prefixes++
		if len(n.outcomes) >= 2 {
			res.Bivalent++
			if n.depth > res.MaxBivalentDepth {
				res.MaxBivalentDepth = n.depth
			}
			critical := true
			for _, ch := range n.children {
				if len(ch.outcomes) >= 2 {
					critical = false
					break
				}
			}
			if critical {
				res.Critical++
			}
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(root)
}
