package sass

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError reports a parse failure with its 1-based text line number.
type ParseError struct {
	TextLine int
	Msg      string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sass: line %d: %s", e.TextLine, e.Msg)
}

// Parse reads the text format produced by Print and reconstructs the
// kernel. It is the GPUscout "Configuration" stage's disassembler
// ingestion path: the static analysis never needs the CUDA source.
// It is one pass, a line at a time, keeping substrings of text and
// cutting operand and modifier slices from shared chunks (see take).
func Parse(text string) (*Kernel, error) {
	k := &Kernel{}
	p := parser{n: len(text)/56 + 1} // printed lines average 58-79 bytes
	curLine, curFile := 0, ""
	sawHeader := false
	rest := text
	for textLine, more := 1, true; more; textLine++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		switch {
		case strings.HasPrefix(s, "/*"):
			if k.Insts == nil {
				k.Insts = make([]Inst, 0, p.n)
			}
			k.Insts = append(k.Insts, Inst{Pred: PT, Ctrl: DefaultCtrl(), Line: curLine})
			in := &k.Insts[len(k.Insts)-1]
			if err := p.inst(in, s); err != nil {
				return nil, &ParseError{textLine, err.Error()}
			}
			if curFile != k.SourceFile {
				in.File = curFile
			}
		case strings.HasPrefix(s, ".kernel "):
			if err := parseHeader(k, s); err != nil {
				return nil, &ParseError{textLine, err.Error()}
			}
			sawHeader = true
		case strings.HasPrefix(s, ".file "):
			f, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(s, ".file")))
			if err != nil {
				return nil, &ParseError{textLine, "bad .file directive: " + err.Error()}
			}
			k.SourceFile = f
		case strings.HasPrefix(s, "//## File "):
			file, line, err := parseLineMarker(s)
			if err != nil {
				return nil, &ParseError{textLine, err.Error()}
			}
			curFile, curLine = file, line
		case strings.HasPrefix(s, "//"):
			// Plain comment.
		default:
			return nil, &ParseError{textLine, fmt.Sprintf("unrecognized line %q", s)}
		}
	}
	if !sawHeader {
		return nil, &ParseError{0, "missing .kernel header"}
	}
	return k, nil
}

// parser cuts instructions' operand and modifier slices from chunks
// sized for n instructions of (on average) 2.8 operands, 0.4 modifiers.
type parser struct {
	opds []Operand
	mods []string
	n    int
}

// take returns the next n elements of *chunk, capped so that appending
// reallocates, starting a new chunk of max(n, size) when n do not fit.
func take[T any](chunk *[]T, n, size int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, size))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

func parseHeader(k *Kernel, s string) error {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return fmt.Errorf("malformed .kernel header %q", s)
	}
	k.Name = fields[1]
	k.Arch = fields[2]
	for _, f := range fields[3:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("malformed header field %q", f)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("header field %q: %v", f, err)
		}
		switch key {
		case "regs":
			k.NumRegs = n
		case "shared":
			k.SharedBytes = n
		case "local":
			k.LocalBytes = n
		case "const":
			k.ConstBytes = n
		default:
			return fmt.Errorf("unknown header field %q", key)
		}
	}
	return nil
}

func parseLineMarker(s string) (file string, line int, err error) {
	// //## File "sgemm.cu", line 12
	rest := strings.TrimPrefix(s, "//## File ")
	end := strings.LastIndex(rest, `", line `)
	// end must fall after the opening quote, not overlap it (`", line 0`).
	if !strings.HasPrefix(rest, `"`) || end < 1 {
		return "", 0, fmt.Errorf("malformed line marker %q", s)
	}
	// The name is a Go string literal, as Print quotes it.
	if file, err = strconv.Unquote(rest[:end+1]); err != nil {
		return "", 0, fmt.Errorf("malformed line marker %q: %v", s, err)
	}
	line, err = strconv.Atoi(strings.TrimSpace(rest[end+len(`", line `):]))
	if err != nil {
		return "", 0, fmt.Errorf("malformed line marker %q: %v", s, err)
	}
	return file, line, nil
}

// inst parses one "/*PC*/ ..." line into in, which holds the defaults
// (unguarded, DefaultCtrl) and the current source line.
func (p *parser) inst(in *Inst, s string) error {
	// Search after the opening "/*": in a degenerate "/*/" the closing
	// marker would otherwise match overlapping the opener.
	close := strings.Index(s[2:], "*/")
	if close < 0 {
		return fmt.Errorf("unterminated PC comment in %q", s)
	}
	close += 2
	pc, err := strconv.ParseUint(strings.TrimSpace(s[2:close]), 16, 64)
	if err != nil {
		return fmt.Errorf("bad PC in %q: %v", s, err)
	}
	in.PC = pc
	s = strings.TrimSpace(s[close+2:])

	// Control info suffix after ';'.
	body, ctrl, found := strings.Cut(s, ";")
	if !found {
		return fmt.Errorf("missing ';' in %q", s)
	}
	if ctrl = strings.TrimSpace(ctrl); ctrl != "" {
		if in.Ctrl, err = parseCtrl(ctrl); err != nil {
			return err
		}
	}
	body = strings.TrimSpace(body)

	// Guard predicate.
	if strings.HasPrefix(body, "@") {
		guard, rest, ok := strings.Cut(body, " ")
		if !ok {
			return fmt.Errorf("guarded instruction with no opcode: %q", body)
		}
		g := guard[1:]
		if strings.HasPrefix(g, "!") {
			in.PredNeg = true
			g = g[1:]
		}
		if in.Pred, err = parsePredName(g); err != nil {
			return err
		}
		body = strings.TrimSpace(rest)
	}

	// Mnemonic: the opcode, then any dot modifiers.
	mnem, operands, _ := strings.Cut(body, " ")
	name, mods, hasMods := strings.Cut(mnem, ".")
	op, ok := OpcodeByName(name)
	if !ok {
		return fmt.Errorf("unknown opcode %q", name)
	}
	in.Op = op
	if hasMods {
		in.Mods = take(&p.mods, strings.Count(mods, ".")+1, p.n)
		for i := range in.Mods {
			in.Mods[i], mods, _ = strings.Cut(mods, ".")
		}
	}

	// Operands: comma-separated, each trimmed.
	var opds []Operand
	if operands = strings.TrimSpace(operands); operands != "" {
		opds = take(&p.opds, strings.Count(operands, ",")+1, 3*p.n)
		for i := range opds {
			var tok string
			tok, operands, _ = strings.Cut(operands, ",")
			if opds[i], err = parseOperand(strings.TrimSpace(tok)); err != nil {
				return err
			}
		}
	}
	if op == OpBRA {
		if len(opds) == 0 || opds[len(opds)-1].Kind != OpdImm {
			return fmt.Errorf("BRA without target in %q", body)
		}
		in.Target = uint64(opds[len(opds)-1].Imm)
		opds = opds[:len(opds)-1]
	}
	nd := min(int(opTable[op].dsts), len(opds))
	if nd > 0 {
		in.Dst = opds[:nd:nd]
	}
	if nd < len(opds) {
		in.Src = opds[nd:]
	}
	return nil
}

func parsePredName(s string) (Pred, error) {
	if s == "PT" {
		return PT, nil
	}
	if strings.HasPrefix(s, "P") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumPreds {
			return Pred(n), nil
		}
	}
	return PT, fmt.Errorf("bad predicate %q", s)
}

func parseRegName(s string) (Reg, error) {
	if s == "RZ" {
		return RZ, nil
	}
	if strings.HasPrefix(s, "R") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumArchRegs {
			return Reg(n), nil
		}
	}
	return RZ, fmt.Errorf("bad register %q", s)
}

func parseHexImm(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q: %v", s, err)
	}
	iv := int64(v)
	if neg {
		iv = -iv
	}
	return iv, nil
}

func parseOperand(tok string) (Operand, error) {
	switch {
	case tok == "":
		return Operand{}, fmt.Errorf("empty operand")
	case strings.HasPrefix(tok, "["):
		if !strings.HasSuffix(tok, "]") {
			return Operand{}, fmt.Errorf("unterminated memory operand %q", tok)
		}
		inner := tok[1 : len(tok)-1]
		base, off, hasOff := strings.Cut(inner, "+")
		r, err := parseRegName(strings.TrimSpace(base))
		if err != nil {
			return Operand{}, err
		}
		var imm int64
		if hasOff {
			imm, err = parseHexImm(strings.TrimSpace(off))
			if err != nil {
				return Operand{}, err
			}
		}
		return Mem(r, imm), nil
	case strings.HasPrefix(tok, "c["):
		// c[0xB][0xOFF]
		var bank, off int64
		rest := tok[2:]
		end := strings.Index(rest, "]")
		if end < 0 {
			return Operand{}, fmt.Errorf("bad constant operand %q", tok)
		}
		bank, err := parseHexImm(rest[:end])
		if err != nil {
			return Operand{}, err
		}
		rest = rest[end+1:]
		if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
			return Operand{}, fmt.Errorf("bad constant operand %q", tok)
		}
		off, err = parseHexImm(rest[1 : len(rest)-1])
		if err != nil {
			return Operand{}, err
		}
		if bank < 0 || off < 0 { // c[-0x1][0x10] would not print canonically
			return Operand{}, fmt.Errorf("negative constant bank or offset in %q", tok)
		}
		return Const(int(bank), off), nil
	case strings.HasPrefix(tok, "SR_"):
		sr, ok := SpecialRegByName(tok)
		if !ok {
			return Operand{}, fmt.Errorf("unknown special register %q", tok)
		}
		return SR(sr), nil
	case tok == "PT" || tok == "!PT" || (len(tok) >= 2 && (tok[0] == 'P' || strings.HasPrefix(tok, "!P")) && !strings.HasPrefix(tok, "PR")):
		neg := strings.HasPrefix(tok, "!")
		p, err := parsePredName(strings.TrimPrefix(tok, "!"))
		if err != nil {
			return Operand{}, err
		}
		o := P(p)
		o.Neg = neg
		return o, nil
	case tok == "RZ" || strings.HasPrefix(tok, "R") || strings.HasPrefix(tok, "-R"):
		neg := strings.HasPrefix(tok, "-")
		r, err := parseRegName(strings.TrimPrefix(tok, "-"))
		if err != nil {
			return Operand{}, err
		}
		o := R(r)
		o.Neg = neg
		return o, nil
	default:
		imm, err := parseHexImm(tok)
		if err != nil {
			return Operand{}, err
		}
		return Imm(imm), nil
	}
}

// parseCtrl reads "& wr=W rd=R wt=0xM st=S [Y]", fields in any order and
// spacing.
func parseCtrl(s string) (Ctrl, error) {
	c := DefaultCtrl()
	if !strings.HasPrefix(s, "&") {
		return c, fmt.Errorf("malformed control info %q", s)
	}
	for f, rest := nextField(s[1:]); f != ""; f, rest = nextField(rest) {
		if f == "Y" {
			c.Yield = true
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return c, fmt.Errorf("malformed control field %q", f)
		}
		switch key {
		case "wr", "rd":
			bar := NoBar
			if val != "-" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 || n > 5 {
					return c, fmt.Errorf("bad scoreboard slot %q", f)
				}
				bar = int8(n)
			}
			if key == "wr" {
				c.WrBar = bar
			} else {
				c.RdBar = bar
			}
		case "wt":
			v, err := parseHexImm(val)
			if err != nil || v < 0 || v > 0x3f {
				return c, fmt.Errorf("bad wait mask %q", f)
			}
			c.WaitMask = uint8(v)
		case "st":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 || n > 15 {
				return c, fmt.Errorf("bad stall count %q", f)
			}
			c.Stall = uint8(n)
		default:
			return c, fmt.Errorf("unknown control field %q", f)
		}
	}
	return c, nil
}

// nextField returns the first field of s as strings.Fields splits it, and
// the text after that field, without building the slice. A printable
// ASCII byte is tested directly; only control bytes and multi-byte runes
// go through unicode.IsSpace.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
		}
		if r == ' ' || (r < ' ' || r >= utf8.RuneSelf) && unicode.IsSpace(r) {
			if start >= 0 {
				return s[start:i], s[i:]
			}
		} else if start < 0 {
			start = i
		}
		i += n
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}
