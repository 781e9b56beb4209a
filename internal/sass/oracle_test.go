package sass_test

import (
	"fmt"
	"strconv"
	"strings"

	. "gpuscout/internal/sass"
)

// The reference printer and parser: the fmt-based Print and the
// strings.Split-based Parse as they stood before both became single-pass
// appenders, kept verbatim (renamed, and reading the package through its
// exported API) as the differential oracle FuzzParseSASS checks them
// against. Three places differ, each marked "canonical-text fix", where
// a kernel Parse accepted printed as text that did not read back to it:
// the printer rendered a MinInt64 immediate or memory offset as
// "-0x-8000000000000000"; the parser accepted a negative constant bank or
// offset, printed as "c[0x-1]..."; and it took a line marker's file name
// verbatim from between the quotes the printer writes with %q, so a name
// with a quote or backslash gained an escape on every round trip.

func oraclePrint(k *Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.kernel %s %s regs=%d shared=%d local=%d const=%d\n",
		k.Name, k.Arch, k.NumRegs, k.SharedBytes, k.LocalBytes, k.ConstBytes)
	if k.SourceFile != "" {
		fmt.Fprintf(&b, "\t.file %q\n", k.SourceFile)
	}
	curLine, curFile := -1, ""
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Line != curLine || in.File != curFile {
			curLine, curFile = in.Line, in.File
			file := in.File
			if file == "" {
				file = k.SourceFile
			}
			fmt.Fprintf(&b, "\t//## File %q, line %d\n", file, in.Line)
		}
		b.WriteString("\t")
		b.WriteString(oracleInstString(in))
		b.WriteString("  ")
		b.WriteString(oracleFormatCtrl(in.Ctrl))
		b.WriteString("\n")
	}
	return b.String()
}

func oracleFormatCtrl(c Ctrl) string {
	var b strings.Builder
	b.WriteString("& wr=")
	oracleWriteBar(&b, c.WrBar)
	b.WriteString(" rd=")
	oracleWriteBar(&b, c.RdBar)
	fmt.Fprintf(&b, " wt=0x%x st=%d", c.WaitMask, c.Stall)
	if c.Yield {
		b.WriteString(" Y")
	}
	return b.String()
}

func oracleWriteBar(b *strings.Builder, bar int8) {
	if bar == NoBar {
		b.WriteString("-")
	} else {
		fmt.Fprintf(b, "%d", bar)
	}
}

func oracleRegString(r Reg) string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", r)
}

func oraclePredString(p Pred) string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", p)
}

func oracleOperandString(o Operand) string {
	switch o.Kind {
	case OpdReg:
		if o.Neg {
			return "-" + oracleRegString(o.Reg)
		}
		return oracleRegString(o.Reg)
	case OpdPred:
		if o.Neg {
			return "!" + oraclePredString(o.Pred)
		}
		return oraclePredString(o.Pred)
	case OpdImm:
		if o.Imm < 0 {
			return fmt.Sprintf("-0x%x", uint64(-o.Imm)) // canonical-text fix: was -o.Imm
		}
		return fmt.Sprintf("0x%x", o.Imm)
	case OpdMem:
		if o.Imm == 0 {
			return fmt.Sprintf("[%s]", oracleRegString(o.Reg))
		}
		if o.Imm < 0 {
			return fmt.Sprintf("[%s+-0x%x]", oracleRegString(o.Reg), uint64(-o.Imm)) // canonical-text fix: was -o.Imm
		}
		return fmt.Sprintf("[%s+0x%x]", oracleRegString(o.Reg), o.Imm)
	case OpdConst:
		return fmt.Sprintf("c[0x%x][0x%x]", o.Bank, o.Imm)
	case OpdSpecial:
		return o.Special.String()
	}
	return "<none>"
}

func oracleInstString(in *Inst) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/*%04x*/ ", in.PC)
	if in.Pred != PT {
		if in.PredNeg {
			b.WriteString("@!")
		} else {
			b.WriteString("@")
		}
		b.WriteString(oraclePredString(in.Pred))
		b.WriteString(" ")
	}
	mnem := in.Op.String()
	if len(in.Mods) != 0 {
		mnem += "." + strings.Join(in.Mods, ".")
	}
	b.WriteString(mnem)
	n := 0
	writeOpd := func(o Operand) {
		if n == 0 {
			b.WriteString(" ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(oracleOperandString(o))
		n++
	}
	for _, o := range in.Dst {
		writeOpd(o)
	}
	for _, o := range in.Src {
		writeOpd(o)
	}
	if in.Op == OpBRA {
		if n == 0 {
			b.WriteString(" ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "0x%x", in.Target)
	}
	b.WriteString(" ;")
	return b.String()
}

func oracleNumDsts(op Opcode) int {
	switch op {
	case OpSTG, OpSTS, OpSTL, OpRED, OpLDGSTS:
		return 1 // the memory operand (LDGSTS: the shared destination)
	case OpATOM, OpATOMS:
		return 2 // return register + memory operand
	case OpISETP, OpFSETP, OpDSETP:
		return 2 // predicate pair
	case OpBRA, OpEXIT, OpBAR, OpNOP, OpRET, OpMEMBAR:
		return 0
	default:
		return 1
	}
}

func oracleParse(text string) (*Kernel, error) {
	k := &Kernel{}
	curLine, curFile := 0, ""
	sawHeader := false
	for ln, raw := range strings.Split(text, "\n") {
		textLine := ln + 1
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		switch {
		case strings.HasPrefix(s, ".kernel "):
			if err := oracleParseHeader(k, s); err != nil {
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
			file, line, err := oracleParseLineMarker(s)
			if err != nil {
				return nil, &ParseError{textLine, err.Error()}
			}
			curFile, curLine = file, line
		case strings.HasPrefix(s, "//"):
			// Plain comment.
		case strings.HasPrefix(s, "/*"):
			in, err := oracleParseInst(s)
			if err != nil {
				return nil, &ParseError{textLine, err.Error()}
			}
			in.Line = curLine
			if curFile != k.SourceFile {
				in.File = curFile
			}
			k.Insts = append(k.Insts, in)
		default:
			return nil, &ParseError{textLine, fmt.Sprintf("unrecognized line %q", s)}
		}
	}
	if !sawHeader {
		return nil, &ParseError{0, "missing .kernel header"}
	}
	return k, nil
}

func oracleParseHeader(k *Kernel, s string) error {
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

func oracleParseLineMarker(s string) (file string, line int, err error) {
	// //## File "sgemm.cu", line 12
	rest := strings.TrimPrefix(s, "//## File ")
	end := strings.LastIndex(rest, `", line `)
	// end must fall after the opening quote, not overlap it (`", line 0`).
	if !strings.HasPrefix(rest, `"`) || end < 1 {
		return "", 0, fmt.Errorf("malformed line marker %q", s)
	}
	if file, err = strconv.Unquote(rest[:end+1]); err != nil { // canonical-text fix: was rest[1:end]
		return "", 0, fmt.Errorf("malformed line marker %q: %v", s, err)
	}
	line, err = strconv.Atoi(strings.TrimSpace(rest[end+len(`", line `):]))
	if err != nil {
		return "", 0, fmt.Errorf("malformed line marker %q: %v", s, err)
	}
	return file, line, nil
}

func oracleParseInst(s string) (Inst, error) {
	in := Inst{Pred: PT, Ctrl: DefaultCtrl()}

	// /*PC*/ prefix.
	if !strings.HasPrefix(s, "/*") {
		return in, fmt.Errorf("missing PC comment in %q", s)
	}
	// Search after the opening "/*": in a degenerate "/*/" the closing
	// marker would otherwise match overlapping the opener.
	close := strings.Index(s[2:], "*/")
	if close < 0 {
		return in, fmt.Errorf("unterminated PC comment in %q", s)
	}
	close += 2
	pc, err := strconv.ParseUint(strings.TrimSpace(s[2:close]), 16, 64)
	if err != nil {
		return in, fmt.Errorf("bad PC in %q: %v", s, err)
	}
	in.PC = pc
	s = strings.TrimSpace(s[close+2:])

	// Control info suffix after ';'.
	body, ctrl, found := strings.Cut(s, ";")
	if !found {
		return in, fmt.Errorf("missing ';' in %q", s)
	}
	ctrl = strings.TrimSpace(ctrl)
	if ctrl != "" {
		c, err := oracleParseCtrl(ctrl)
		if err != nil {
			return in, err
		}
		in.Ctrl = c
	}
	body = strings.TrimSpace(body)

	// Guard predicate.
	if strings.HasPrefix(body, "@") {
		guard, rest, ok := strings.Cut(body, " ")
		if !ok {
			return in, fmt.Errorf("guarded instruction with no opcode: %q", body)
		}
		g := strings.TrimPrefix(guard, "@")
		if strings.HasPrefix(g, "!") {
			in.PredNeg = true
			g = g[1:]
		}
		p, err := oracleParsePredName(g)
		if err != nil {
			return in, err
		}
		in.Pred = p
		body = strings.TrimSpace(rest)
	}

	// Mnemonic.
	mnem, operands, _ := strings.Cut(body, " ")
	parts := strings.Split(mnem, ".")
	op, ok := OpcodeByName(parts[0])
	if !ok {
		return in, fmt.Errorf("unknown opcode %q", parts[0])
	}
	in.Op = op
	if len(parts) > 1 {
		in.Mods = parts[1:]
	}

	// Operands.
	operands = strings.TrimSpace(operands)
	var opds []Operand
	if operands != "" {
		for _, tok := range oracleSplitOperands(operands) {
			o, err := oracleParseOperand(tok)
			if err != nil {
				return in, err
			}
			opds = append(opds, o)
		}
	}
	if op == OpBRA {
		if len(opds) == 0 || opds[len(opds)-1].Kind != OpdImm {
			return in, fmt.Errorf("BRA without target in %q", body)
		}
		in.Target = uint64(opds[len(opds)-1].Imm)
		opds = opds[:len(opds)-1]
	}
	nd := oracleNumDsts(op)
	if nd > len(opds) {
		nd = len(opds)
	}
	if nd > 0 {
		in.Dst = opds[:nd:nd]
	}
	if nd < len(opds) {
		in.Src = opds[nd:]
	}
	return in, nil
}

func oracleSplitOperands(s string) []string {
	// Commas never nest in our operand grammar except inside c[..][..]
	// (none) — a flat split suffices.
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func oracleParsePredName(s string) (Pred, error) {
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

func oracleParseRegName(s string) (Reg, error) {
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

func oracleParseHexImm(s string) (int64, error) {
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

func oracleParseOperand(tok string) (Operand, error) {
	switch {
	case tok == "":
		return Operand{}, fmt.Errorf("empty operand")
	case strings.HasPrefix(tok, "["):
		if !strings.HasSuffix(tok, "]") {
			return Operand{}, fmt.Errorf("unterminated memory operand %q", tok)
		}
		inner := tok[1 : len(tok)-1]
		base, off, hasOff := strings.Cut(inner, "+")
		r, err := oracleParseRegName(strings.TrimSpace(base))
		if err != nil {
			return Operand{}, err
		}
		var imm int64
		if hasOff {
			imm, err = oracleParseHexImm(strings.TrimSpace(off))
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
		bank, err := oracleParseHexImm(rest[:end])
		if err != nil {
			return Operand{}, err
		}
		rest = rest[end+1:]
		if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
			return Operand{}, fmt.Errorf("bad constant operand %q", tok)
		}
		off, err = oracleParseHexImm(rest[1 : len(rest)-1])
		if err != nil {
			return Operand{}, err
		}
		if bank < 0 || off < 0 { // canonical-text fix: was accepted
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
		p, err := oracleParsePredName(strings.TrimPrefix(tok, "!"))
		if err != nil {
			return Operand{}, err
		}
		o := P(p)
		o.Neg = neg
		return o, nil
	case tok == "RZ" || strings.HasPrefix(tok, "R") || strings.HasPrefix(tok, "-R"):
		neg := strings.HasPrefix(tok, "-")
		r, err := oracleParseRegName(strings.TrimPrefix(tok, "-"))
		if err != nil {
			return Operand{}, err
		}
		o := R(r)
		o.Neg = neg
		return o, nil
	default:
		imm, err := oracleParseHexImm(tok)
		if err != nil {
			return Operand{}, err
		}
		return Imm(imm), nil
	}
}

func oracleParseCtrl(s string) (Ctrl, error) {
	c := DefaultCtrl()
	if !strings.HasPrefix(s, "&") {
		return c, fmt.Errorf("malformed control info %q", s)
	}
	for _, f := range strings.Fields(strings.TrimPrefix(s, "&")) {
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
			v, err := oracleParseHexImm(val)
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
