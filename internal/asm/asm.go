// Package asm implements a two-pass assembler for the simulator's
// PISA-like ISA. It accepts classic MIPS assembler syntax — labels,
// .text/.data directives, register names, pseudo-instructions — and
// produces an emu.Program image of real encoded machine words, so the
// front end of the timing model fetches and decodes genuine binaries.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pok/internal/emu"
	"pok/internal/isa"
)

// Error describes an assembly failure with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type section int

const (
	secText section = iota
	secData
)

// item is one assembly statement after parsing: either an instruction
// (possibly pseudo, expanded later) or a data directive.
type stmt struct {
	line int
	mnem string
	args []string
	sec  section
	addr uint32
	size uint32 // bytes this statement occupies
}

// Assembler holds state across the two passes.
type assembler struct {
	symbols  map[string]uint32
	stmts    []stmt
	textAddr uint32
	dataAddr uint32
	entry    string
}

// Assemble translates source into a loadable program. The entry point is
// the label "main" if present, else the start of the text section.
func Assemble(source string) (*emu.Program, error) {
	a := &assembler{
		symbols:  make(map[string]uint32),
		textAddr: emu.DefaultTextBase,
		dataAddr: emu.DefaultDataBase,
		entry:    "main",
	}
	if err := a.pass1(source); err != nil {
		return nil, err
	}
	return a.pass2()
}

// splitArgs splits an operand list on commas that are outside quotes.
func splitArgs(s string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
			cur.WriteByte(c)
		case c == '\\' && inStr && i+1 < len(s):
			cur.WriteByte(c)
			i++
			cur.WriteByte(s[i])
		case c == ',' && !inStr:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if t := strings.TrimSpace(cur.String()); t != "" || len(out) > 0 {
		out = append(out, t)
	}
	return out
}

// stripComment removes # or ; comments outside string and char literals.
func stripComment(s string) string {
	inStr, inChar := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if !inChar {
				inStr = !inStr
			}
		case '\'':
			if !inStr {
				inChar = !inChar
			}
		case '\\':
			if inStr || inChar {
				i++
			}
		case '#', ';':
			if !inStr && !inChar {
				return s[:i]
			}
		}
	}
	return s
}

func (a *assembler) pass1(source string) error {
	sec := secText
	text := a.textAddr
	data := a.dataAddr
	cur := func() *uint32 {
		if sec == secText {
			return &text
		}
		return &data
	}

	for lineNo, raw := range strings.Split(source, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		ln := lineNo + 1
		// Peel off any labels ("name:") at the start of the line.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			lbl := strings.TrimSpace(line[:idx])
			if !isIdent(lbl) {
				break
			}
			if _, dup := a.symbols[lbl]; dup {
				return errf(ln, "duplicate label %q", lbl)
			}
			a.symbols[lbl] = *cur()
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		mnem := strings.ToLower(strings.TrimSpace(fields[0]))
		var args []string
		if len(fields) > 1 {
			args = splitArgs(strings.TrimSpace(fields[1]))
		}
		st := stmt{line: ln, mnem: mnem, args: args, sec: sec, addr: *cur()}

		switch mnem {
		case ".text":
			sec = secText
			if len(args) == 1 {
				v, err := parseInt(args[0])
				if err != nil {
					return errf(ln, ".text address: %v", err)
				}
				text = uint32(v)
			}
			continue
		case ".data":
			sec = secData
			if len(args) == 1 {
				v, err := parseInt(args[0])
				if err != nil {
					return errf(ln, ".data address: %v", err)
				}
				data = uint32(v)
			}
			continue
		case ".globl", ".global", ".ent", ".end", ".set":
			continue
		case ".align":
			if len(args) != 1 {
				return errf(ln, ".align needs one argument")
			}
			v, err := parseInt(args[0])
			if err != nil {
				return errf(ln, ".align: %v", err)
			}
			al := uint32(1) << uint(v)
			p := cur()
			*p = (*p + al - 1) &^ (al - 1)
			// Labels on the same line were bound pre-alignment; rebind.
			for lbl, addr := range a.symbols {
				if addr == st.addr && addr != *p {
					a.symbols[lbl] = *p
				}
			}
			continue
		case ".word", ".float":
			st.size = uint32(4 * len(args))
		case ".half":
			st.size = uint32(2 * len(args))
		case ".byte":
			st.size = uint32(len(args))
		case ".space":
			if len(args) != 1 {
				return errf(ln, ".space needs one argument")
			}
			v, err := parseInt(args[0])
			if err != nil {
				return errf(ln, ".space: %v", err)
			}
			st.size = uint32(v)
		case ".ascii", ".asciiz":
			if len(args) != 1 {
				return errf(ln, "%s needs one string argument", mnem)
			}
			s, err := parseString(args[0])
			if err != nil {
				return errf(ln, "%v", err)
			}
			st.size = uint32(len(s))
			if mnem == ".asciiz" {
				st.size++
			}
		default:
			if strings.HasPrefix(mnem, ".") {
				return errf(ln, "unknown directive %q", mnem)
			}
			if sec != secText {
				return errf(ln, "instruction %q outside .text", mnem)
			}
			n, err := instSize(mnem, args)
			if err != nil {
				return errf(ln, "%v", err)
			}
			st.size = uint32(4 * n)
		}
		st.addr = *cur()
		a.stmts = append(a.stmts, st)
		*cur() += st.size
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		v := int64(body[0])
		if neg {
			v = -v
		}
		return v, nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", s)
	}
	out, err := strconv.Unquote(s)
	if err != nil {
		return "", fmt.Errorf("bad string literal %s: %v", s, err)
	}
	return out, nil
}

func (a *assembler) pass2() (*emu.Program, error) {
	var textSeg, dataSeg []byte
	textBase, dataBase := uint32(0), uint32(0)
	haveText, haveData := false, false

	// extend grows sec's segment, zero-filled, to cover n bytes at addr
	// and returns those bytes.
	extend := func(sec section, addr uint32, n int) []byte {
		var seg *[]byte
		var base *uint32
		var have *bool
		if sec == secText {
			seg, base, have = &textSeg, &textBase, &haveText
		} else {
			seg, base, have = &dataSeg, &dataBase, &haveData
		}
		if !*have {
			*base = addr
			*have = true
		}
		off := int(addr - *base)
		if end := off + n; end > len(*seg) {
			*seg = append(*seg, make([]byte, end-len(*seg))...)
		}
		return (*seg)[off : off+n]
	}
	put := func(sec section, addr uint32, b []byte) { copy(extend(sec, addr, len(b)), b) }

	for _, st := range a.stmts {
		switch st.mnem {
		case ".float":
			for i, arg := range st.args {
				f, err := strconv.ParseFloat(strings.TrimSpace(arg), 32)
				if err != nil {
					return nil, errf(st.line, "bad float %q", arg)
				}
				bits := math.Float32bits(float32(f))
				var b [4]byte
				for j := 0; j < 4; j++ {
					b[j] = byte(bits >> (8 * j))
				}
				put(st.sec, st.addr+uint32(i*4), b[:])
			}
		case ".word", ".half", ".byte":
			width := map[string]int{".word": 4, ".half": 2, ".byte": 1}[st.mnem]
			for i, arg := range st.args {
				v, err := a.resolveValue(arg, st.line)
				if err != nil {
					return nil, err
				}
				var b [4]byte
				for j := 0; j < width; j++ {
					b[j] = byte(v >> (8 * j))
				}
				put(st.sec, st.addr+uint32(i*width), b[:width])
			}
		case ".space":
			// Zero in place: a section re-entered at a lower address may
			// already hold bytes here.
			clear(extend(st.sec, st.addr, int(st.size)))
		case ".ascii", ".asciiz":
			s, _ := parseString(st.args[0])
			b := []byte(s)
			if st.mnem == ".asciiz" {
				b = append(b, 0)
			}
			put(st.sec, st.addr, b)
		default:
			insts, err := a.expand(st)
			if err != nil {
				return nil, err
			}
			if uint32(4*len(insts)) != st.size {
				return nil, errf(st.line, "internal: %q expanded to %d words, reserved %d",
					st.mnem, len(insts), st.size/4)
			}
			for i, in := range insts {
				w, err := isa.Encode(in)
				if err != nil {
					return nil, errf(st.line, "%v", err)
				}
				var b [4]byte
				b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
				put(st.sec, st.addr+uint32(4*i), b[:])
			}
		}
	}

	entry := textBase
	if addr, ok := a.symbols[a.entry]; ok {
		entry = addr
	}
	prog := &emu.Program{Entry: entry, Symbols: a.symbols}
	if haveText {
		prog.Segments = append(prog.Segments, emu.Segment{Addr: textBase, Data: textSeg})
	}
	if haveData {
		prog.Segments = append(prog.Segments, emu.Segment{Addr: dataBase, Data: dataSeg})
	}
	return prog, nil
}

// resolveValue evaluates an integer or symbol (with optional +/- offset).
func (a *assembler) resolveValue(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	// label, label+n, label-n
	for _, sep := range []string{"+", "-"} {
		if i := strings.LastIndex(s, sep); i > 0 {
			base := strings.TrimSpace(s[:i])
			if addr, ok := a.symbols[base]; ok {
				off, err := parseInt(s[i+1:])
				if err != nil {
					return 0, errf(line, "bad offset in %q", s)
				}
				if sep == "-" {
					off = -off
				}
				return int64(addr) + off, nil
			}
		}
	}
	if addr, ok := a.symbols[s]; ok {
		return int64(addr), nil
	}
	return 0, errf(line, "undefined symbol %q", s)
}
