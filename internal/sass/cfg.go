package sass

import (
	"fmt"
	"sort"
)

// Block is a basic block: a maximal straight-line instruction sequence.
type Block struct {
	ID    int
	Start int // index of first instruction in Kernel.Insts
	End   int // index one past the last instruction
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of a kernel plus derived structure:
// dominators, immediate post-dominators (used by the simulator for branch
// reconvergence) and natural loops (used by detectors that treat in-loop
// bottlenecks as amplified, per §4.3/§4.4).
type CFG struct {
	Kernel *Kernel
	Blocks []Block

	blockOf []int // instruction index -> block ID

	idom  []int // immediate dominator per block (-1 for entry)
	ipdom []int // immediate post-dominator per block (-1 for exit)

	// loopDepth[i] is the number of natural loops containing instruction i.
	loopDepth []int
	// Loops lists each natural loop as (header block, body block set).
	Loops []Loop
}

// Loop is a natural loop identified from a back edge.
type Loop struct {
	Header int          // header block ID
	Blocks map[int]bool // all blocks in the loop, including the header
}

// BuildCFG constructs the control-flow graph and all derived analyses.
func BuildCFG(k *Kernel) (*CFG, error) {
	n := len(k.Insts)
	if n == 0 {
		return nil, fmt.Errorf("sass: cannot build CFG of empty kernel %q", k.Name)
	}

	// Leaders: the entry, every successor other than the fall-through
	// (branch targets), and the instruction after a BRA, EXIT or RET.
	cfg := &CFG{Kernel: k, blockOf: make([]int, n)}
	leader := make([]bool, n)
	leader[0] = true
	var succ []int
	for i := range k.Insts {
		in := &k.Insts[i]
		switch in.Op {
		case OpBRA:
			if in.Target/InstBytes >= uint64(n) {
				return nil, fmt.Errorf("sass: branch at %#x targets out-of-range PC %#x", in.PC, in.Target)
			}
			fallthrough
		case OpEXIT, OpRET:
			if i+1 < n {
				leader[i+1] = true
			}
		}
		succ = cfg.succs(i, succ[:0])
		for _, s := range succ {
			if s != i+1 {
				leader[s] = true
			}
		}
	}

	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		id := len(cfg.Blocks)
		cfg.Blocks = append(cfg.Blocks, Block{ID: id, Start: i, End: j})
		for t := i; t < j; t++ {
			cfg.blockOf[t] = id
		}
		i = j
	}

	// Edges: a block's successors are its last instruction's.
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		succ = cfg.succs(b.End-1, succ[:0])
		for _, s := range succ {
			to := cfg.blockOf[s]
			b.Succs = append(b.Succs, to)
			cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, bi)
		}
	}

	cfg.computeDominators()
	cfg.computePostDominators()
	cfg.findLoops()
	return cfg, nil
}

// Succs is the successor rule every control-flow analysis shares. It
// appends to buf the indices of the instructions that can follow
// instruction i of an n-instruction program: a BRA's target, plus the
// next instruction when the branch is guarded; the next instruction
// after a guarded EXIT or RET, which the threads that stay run, and none
// after an unguarded one; the next instruction after anything else.
// Nothing follows the last instruction.
func Succs(buf []int, op Opcode, guarded bool, i, target, n int) []int {
	next := i+1 < n
	switch op {
	case OpBRA:
		buf = append(buf, target)
		next = next && guarded
	case OpEXIT, OpRET:
		next = next && guarded
	}
	if next {
		buf = append(buf, i+1)
	}
	return buf
}

// succs appends instruction i's successors (Succs) to buf.
func (c *CFG) succs(i int, buf []int) []int {
	in := &c.Kernel.Insts[i]
	return Succs(buf, in.Op, in.Pred != PT, i, int(in.Target/InstBytes), len(c.Kernel.Insts))
}

// InLoop reports whether instruction index i is inside a natural loop —
// the paper's "is the register inside a for-loop" check.
func (c *CFG) InLoop(i int) bool { return c.loopDepth[i] > 0 }

// IPDomPC returns the PC of the immediate post-dominator block's first
// instruction for the block containing instruction index i, and true; or
// false when the block post-dominates everything on its path (exit side).
// The simulator uses this as the reconvergence point of divergent branches.
func (c *CFG) IPDomPC(i int) (uint64, bool) {
	b := c.blockOf[i]
	p := c.ipdom[b]
	if p < 0 {
		return 0, false
	}
	return c.Kernel.Insts[c.Blocks[p].Start].PC, true
}

// computeDominators runs the classic iterative dominance algorithm
// (Cooper/Harvey/Kennedy) over the block graph in reverse post-order.
func (c *CFG) computeDominators() {
	order := c.reversePostOrder(false)
	c.idom = c.iterDoms(order, func(b int) []int { return c.Blocks[b].Preds }, 0)
}

// computePostDominators runs the same algorithm on the reversed graph.
// Multiple exit blocks are handled with a virtual exit (-2 internally,
// folded back to -1 in the result).
func (c *CFG) computePostDominators() {
	order := c.reversePostOrder(true)
	c.ipdom = c.iterDoms(order, func(b int) []int { return c.Blocks[b].Succs }, -1)
}

// reversePostOrder returns block IDs in reverse post-order of a DFS from
// the entry (or, for the reversed graph, from all exit blocks).
func (c *CFG) reversePostOrder(reversed bool) []int {
	n := len(c.Blocks)
	visited := make([]bool, n)
	var post []int
	var dfs func(b int)
	dfs = func(b int) {
		if visited[b] {
			return
		}
		visited[b] = true
		next := c.Blocks[b].Succs
		if reversed {
			next = c.Blocks[b].Preds
		}
		for _, s := range next {
			dfs(s)
		}
		post = append(post, b)
	}
	if reversed {
		for b := range c.Blocks {
			if len(c.Blocks[b].Succs) == 0 {
				dfs(b)
			}
		}
		// Unreachable-from-exit blocks (infinite loops) still need an order.
		for b := range c.Blocks {
			dfs(b)
		}
	} else {
		dfs(0)
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// iterDoms computes immediate dominators over the given order. roots are
// blocks with no predecessors in the chosen direction; entry selects the
// forward entry block (or -1 for the post-dominator pass, where every
// exit block is a root).
func (c *CFG) iterDoms(order []int, preds func(int) []int, entry int) []int {
	n := len(c.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	pos := make([]int, n) // position in order, for intersect
	for i, b := range order {
		pos[b] = i
	}
	isRoot := func(b int) bool {
		if entry >= 0 {
			return b == entry
		}
		return len(c.Blocks[b].Succs) == 0
	}
	for _, b := range order {
		if isRoot(b) {
			idom[b] = b
		}
	}
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
				if a < 0 {
					return b
				}
			}
			for pos[b] > pos[a] {
				b = idom[b]
				if b < 0 {
					return a
				}
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if isRoot(b) {
				continue
			}
			newIdom := -1
			for _, p := range preds(b) {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	// Fold self-references (roots) to -1 to mean "none".
	for b := range idom {
		if idom[b] == b {
			idom[b] = -1
		}
	}
	return idom
}

// dominates reports whether block a dominates block b (forward sense).
func (c *CFG) dominates(a, b int) bool {
	for b >= 0 {
		if a == b {
			return true
		}
		if b == 0 {
			return a == 0
		}
		b = c.idom[b]
	}
	return false
}

// findLoops identifies natural loops from back edges (edge t->h where h
// dominates t) and computes per-instruction loop depth.
func (c *CFG) findLoops() {
	c.loopDepth = make([]int, len(c.Kernel.Insts))
	for bi := range c.Blocks {
		for _, succ := range c.Blocks[bi].Succs {
			if !c.dominates(succ, bi) {
				continue
			}
			// Back edge bi -> succ: collect the loop body.
			loop := Loop{Header: succ, Blocks: map[int]bool{succ: true}}
			stack := []int{bi}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if loop.Blocks[b] {
					continue
				}
				loop.Blocks[b] = true
				for _, p := range c.Blocks[b].Preds {
					stack = append(stack, p)
				}
			}
			c.Loops = append(c.Loops, loop)
			for b := range loop.Blocks {
				for i := c.Blocks[b].Start; i < c.Blocks[b].End; i++ {
					c.loopDepth[i]++
				}
			}
		}
	}
	sort.Slice(c.Loops, func(i, j int) bool { return c.Loops[i].Header < c.Loops[j].Header })
}
