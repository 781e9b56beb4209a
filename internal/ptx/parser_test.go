package ptx

import (
	"fmt"
	"strings"
)

// Parse is a test-only reader of the text form Module.Print produces: no
// binary parses PTX text, so it lives beside the tests that use it as the
// oracle for Print's format and for Lift's opcode/state-space
// classification (it re-derives both from the instruction text alone).
// It accepts exactly that dialect: an optional leading comment block, one
// ".visible .entry NAME()" declaration, and a braced body of ".loc" line
// markers and ";"-terminated instructions. Instruction opcodes and state
// spaces are re-derived from the instruction text, so Atomics works on a
// parsed module exactly as on a lifted one. SASS PCs are not part of the
// text form and come back as zero.
func Parse(text string) (*Module, error) {
	lines := strings.Split(text, "\n")
	i := 0
	next := func() (string, bool) {
		for i < len(lines) {
			line := strings.TrimSuffix(lines[i], "\r")
			i++
			trimmed := strings.TrimSpace(line)
			if trimmed == "" || strings.HasPrefix(trimmed, "//") {
				continue
			}
			return trimmed, true
		}
		return "", false
	}

	decl, ok := next()
	if !ok {
		return nil, fmt.Errorf("ptx: empty module")
	}
	const entry = ".visible .entry "
	if !strings.HasPrefix(decl, entry) || !strings.HasSuffix(decl, "()") {
		return nil, fmt.Errorf("ptx: line %d: want %q declaration, got %q", i, entry+"NAME()", decl)
	}
	m := &Module{Kernel: strings.TrimSuffix(strings.TrimPrefix(decl, entry), "()")}
	if m.Kernel == "" {
		return nil, fmt.Errorf("ptx: line %d: empty kernel name", i)
	}

	if open, ok := next(); !ok || open != "{" {
		return nil, fmt.Errorf("ptx: line %d: want '{' after entry declaration", i)
	}

	curLine := 0
	closed := false
	for {
		line, ok := next()
		if !ok {
			break
		}
		if line == "}" {
			closed = true
			break
		}
		if strings.HasPrefix(line, ".loc ") {
			var file, col int
			if _, err := fmt.Sscanf(line, ".loc %d %d %d", &file, &curLine, &col); err != nil {
				return nil, fmt.Errorf("ptx: line %d: malformed %q: %w", i, line, err)
			}
			continue
		}
		body, ok := strings.CutSuffix(line, ";")
		if !ok {
			return nil, fmt.Errorf("ptx: line %d: instruction %q lacks ';'", i, line)
		}
		in := Inst{Text: strings.TrimSpace(body), Line: curLine}
		in.Opcode, in.Space = classify(in.Text)
		m.Insts = append(m.Insts, in)
	}
	if !closed {
		return nil, fmt.Errorf("ptx: missing closing '}'")
	}
	if rest, ok := next(); ok {
		return nil, fmt.Errorf("ptx: trailing content %q after '}'", rest)
	}
	return m, nil
}

// classify re-derives the Opcode and Space fields from an instruction's
// text, mirroring how liftInst builds them: the opcode is the mnemonic's
// first dotted segment, the space is the second when it names a state
// space — except ld.global.nc, which Lift files under the read-only path
// with an empty space, and tex, whose space is implied by the opcode.
func classify(text string) (opcode, space string) {
	head := text
	if cut := strings.IndexAny(head, " \t"); cut >= 0 {
		head = head[:cut]
	}
	segs := strings.Split(head, ".")
	opcode = segs[0]
	if opcode == "tex" {
		return opcode, "tex"
	}
	if len(segs) >= 2 {
		switch segs[1] {
		case "global", "shared", "local", "const":
			if len(segs) >= 3 && segs[2] == "nc" {
				return opcode, ""
			}
			return opcode, segs[1]
		}
	}
	return opcode, ""
}
