package sass

import "strconv"

// Print renders the kernel in the nvdisasm-like text format understood by
// Parse. The format includes a ".kernel" resource header, "//## File"
// line-info markers (as produced by nvdisasm --print-line-info for
// binaries compiled with -g --generate-line-info), and per-instruction
// control information after the ";".
//
// The text is canonical (what Parse accepts prints to text that parses
// back to it), so an upload is addressed by it. It is one append pass into
// one buffer; the String methods of Inst, Operand, Reg and Pred share it.
func Print(k *Kernel) string {
	// An instruction line averages 64 bytes with its share of markers.
	b := make([]byte, 0, 128+len(k.Name)+len(k.Arch)+len(k.SourceFile)+80*len(k.Insts))
	b = append(append(append(append(b, "\t.kernel "...), k.Name...), ' '), k.Arch...)
	b = strconv.AppendInt(append(b, " regs="...), int64(k.NumRegs), 10)
	b = strconv.AppendInt(append(b, " shared="...), int64(k.SharedBytes), 10)
	b = strconv.AppendInt(append(b, " local="...), int64(k.LocalBytes), 10)
	b = strconv.AppendInt(append(b, " const="...), int64(k.ConstBytes), 10)
	b = append(b, '\n')
	if k.SourceFile != "" {
		b = append(strconv.AppendQuote(append(b, "\t.file "...), k.SourceFile), '\n')
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
			b = strconv.AppendQuote(append(b, "\t//## File "...), file)
			b = append(strconv.AppendInt(append(b, ", line "...), int64(in.Line), 10), '\n')
		}
		b = in.appendText(append(b, '\t'))
		b = append(in.Ctrl.appendText(append(b, "  "...)), '\n')
	}
	return string(b)
}

// appendText appends "/*pc*/ [@[!]Pn ]MNEMONIC[.MOD...] [opd, ...] ;".
func (in *Inst) appendText(b []byte) []byte {
	b = append(b, "/*"...)
	for pad := uint64(0x1000); pad > 1 && in.PC < pad; pad >>= 4 {
		b = append(b, '0') // %04x
	}
	b = append(strconv.AppendUint(b, in.PC, 16), "*/ "...)
	if in.Pred != PT {
		b = append(b, '@')
		if in.PredNeg {
			b = append(b, '!')
		}
		b = append(in.Pred.appendText(b), ' ')
	}
	b = append(b, in.Op.String()...)
	for _, m := range in.Mods {
		b = append(append(b, '.'), m...)
	}
	sep := " "
	for _, o := range in.Dst {
		b, sep = o.appendText(append(b, sep...)), ", "
	}
	for _, o := range in.Src {
		b, sep = o.appendText(append(b, sep...)), ", "
	}
	if in.Op == OpBRA {
		b = strconv.AppendUint(append(append(b, sep...), "0x"...), in.Target, 16)
	}
	return append(b, " ;"...)
}

func (o Operand) appendText(b []byte) []byte {
	switch o.Kind {
	case OpdReg:
		if o.Neg {
			b = append(b, '-')
		}
		return o.Reg.appendText(b)
	case OpdPred:
		if o.Neg {
			b = append(b, '!')
		}
		return o.Pred.appendText(b)
	case OpdImm:
		return appendHex(b, o.Imm)
	case OpdMem:
		b = o.Reg.appendText(append(b, '['))
		if o.Imm != 0 {
			b = appendHex(append(b, '+'), o.Imm)
		}
		return append(b, ']')
	case OpdConst:
		b = appendHex(append(b, "c["...), int64(o.Bank))
		return append(appendHex(append(b, "]["...), o.Imm), ']')
	case OpdSpecial:
		return append(b, o.Special.String()...)
	}
	return append(b, "<none>"...)
}

// appendHex appends v in the signed hexadecimal form parseHexImm reads
// back: 0x1f, -0x10, and MinInt64 as -0x8000000000000000.
func appendHex(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b, u = append(b, '-'), -u
	}
	return strconv.AppendUint(append(b, "0x"...), u, 16)
}

func (r Reg) appendText(b []byte) []byte  { return appendName(b, r == RZ, "RZ", 'R', uint64(r)) }
func (p Pred) appendText(b []byte) []byte { return appendName(b, p == PT, "PT", 'P', uint64(p)) }

// appendName appends a register's name: the fixed one of the zero or
// true register, else its letter and number.
func appendName(b []byte, fixed bool, name string, letter byte, n uint64) []byte {
	if fixed {
		return append(b, name...)
	}
	return strconv.AppendUint(append(b, letter), n, 10)
}

// appendText appends "& wr=W rd=R wt=0xM st=S[ Y]", a slot being "-"
// for NoBar.
func (c Ctrl) appendText(b []byte) []byte {
	b = appendBar(append(b, "& wr="...), c.WrBar)
	b = appendBar(append(b, " rd="...), c.RdBar)
	b = strconv.AppendUint(append(b, " wt=0x"...), uint64(c.WaitMask), 16)
	b = strconv.AppendUint(append(b, " st="...), uint64(c.Stall), 10)
	if c.Yield {
		b = append(b, " Y"...)
	}
	return b
}

func appendBar(b []byte, bar int8) []byte {
	if bar == NoBar {
		return append(b, '-')
	}
	return strconv.AppendInt(b, int64(bar), 10)
}
