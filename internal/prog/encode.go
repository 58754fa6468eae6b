package prog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"phasetune/internal/isa"
)

// This file implements a textual image format so program binaries exist as
// on-disk artifacts: cmd/benchgen can dump the generated suite and
// cmd/phasemark can analyze saved images, mirroring how the paper's
// framework consumes binaries produced elsewhere.
//
// Format (line-oriented, '#' comments):
//
//	program <name> entry=<procIndex>
//	proc <name>
//	<mnemonic> [key=value]...
//	end
//
// Instruction attributes: target (branch/jump instruction index, call
// procedure index), p (branch taken probability), trips (counted-branch
// trip count), ws/loc/stride (memory locality descriptor), mark (phase-mark
// ID), bytes (encoded-size override).

// Encode writes the program image to w. Each line is rendered into one
// reused buffer, so hashing a program (the image cache keys programs by
// their encoding) allocates nothing per instruction.
func Encode(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	line := append([]byte("program "), p.Name...)
	line = append(appendIntAttr(line, " entry=", p.Entry), '\n')
	bw.Write(line)
	for _, proc := range p.Procs {
		line = append(append(line[:0], "proc "...), proc.Name...)
		line = append(line, '\n')
		bw.Write(line)
		for _, in := range proc.Instrs {
			line = append(appendInstr(line[:0], in), '\n')
			bw.Write(line)
		}
		bw.WriteString("end\n")
	}
	return bw.Flush()
}

// appendInstr renders one instruction onto dst. Floats use the shortest
// representation that round-trips (fmt's %g).
func appendInstr(dst []byte, in isa.Instruction) []byte {
	dst = append(dst, in.Op.String()...)
	switch in.Op {
	case isa.Branch:
		dst = appendIntAttr(dst, " target=", in.Target)
		if in.TripCount > 0 {
			dst = appendIntAttr(dst, " trips=", int(in.TripCount))
		} else {
			dst = strconv.AppendFloat(append(dst, " p="...), in.TakenProb, 'g', -1, 64)
		}
	case isa.Jump, isa.Call:
		dst = appendIntAttr(dst, " target=", in.Target)
	case isa.Load, isa.Store:
		dst = strconv.AppendFloat(append(dst, " ws="...), in.Mem.WorkingSetKB, 'g', -1, 64)
		dst = strconv.AppendFloat(append(dst, " loc="...), in.Mem.Locality, 'g', -1, 64)
		if in.Mem.StrideB != 0 {
			dst = appendIntAttr(dst, " stride=", in.Mem.StrideB)
		}
	case isa.PhaseMark:
		dst = appendIntAttr(dst, " mark=", in.MarkID)
	}
	if in.Bytes > 0 {
		dst = appendIntAttr(dst, " bytes=", in.Bytes)
	}
	return dst
}

// appendIntAttr appends " key=value" (key carries the space and '=').
func appendIntAttr(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// mnemonics maps instruction names back to classes.
var mnemonics = func() map[string]isa.OpClass {
	m := map[string]isa.OpClass{}
	for c := 0; c < isa.NumOpClasses; c++ {
		m[isa.OpClass(c).String()] = isa.OpClass(c)
	}
	return m
}()

// Decode parses a program image from r and validates it.
func Decode(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var p *Program
	var cur *Procedure
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "program":
			if p != nil {
				return nil, decodeErr(line, "duplicate program header")
			}
			if len(fields) < 3 {
				return nil, decodeErr(line, "program header needs name and entry")
			}
			entry, err := intAttr(fields[2], "entry")
			if err != nil {
				return nil, decodeErr(line, err.Error())
			}
			p = &Program{Name: fields[1], Entry: entry}
		case "proc":
			if p == nil {
				return nil, decodeErr(line, "proc before program header")
			}
			if cur != nil {
				return nil, decodeErr(line, "proc inside proc (missing end)")
			}
			if len(fields) != 2 {
				return nil, decodeErr(line, "proc needs exactly one name")
			}
			cur = &Procedure{Name: fields[1]}
		case "end":
			if cur == nil {
				return nil, decodeErr(line, "end outside proc")
			}
			p.Procs = append(p.Procs, cur)
			cur = nil
		default:
			if cur == nil {
				return nil, decodeErr(line, "instruction outside proc")
			}
			in, err := decodeInstr(fields)
			if err != nil {
				return nil, decodeErr(line, err.Error())
			}
			cur.Instrs = append(cur.Instrs, in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("prog: empty image")
	}
	if cur != nil {
		return nil, fmt.Errorf("prog: unterminated proc %q", cur.Name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func decodeErr(line int, msg string) error {
	return fmt.Errorf("prog: line %d: %s", line, msg)
}

// decodeInstr parses one instruction line.
func decodeInstr(fields []string) (isa.Instruction, error) {
	op, ok := mnemonics[fields[0]]
	if !ok {
		return isa.Instruction{}, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	in := isa.Instruction{Op: op}
	for _, f := range fields[1:] {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return in, fmt.Errorf("malformed attribute %q", f)
		}
		switch key {
		case "target":
			v, err := strconv.Atoi(val)
			if err != nil {
				return in, fmt.Errorf("bad target %q", val)
			}
			in.Target = v
		case "p":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return in, fmt.Errorf("bad probability %q", val)
			}
			in.TakenProb = v
		case "trips":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return in, fmt.Errorf("bad trip count %q", val)
			}
			in.TripCount = int32(v)
			if in.TakenProb == 0 {
				in.TakenProb = 1 - 1/float64(v)
			}
		case "ws":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return in, fmt.Errorf("bad working set %q", val)
			}
			in.Mem.WorkingSetKB = v
		case "loc":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return in, fmt.Errorf("bad locality %q", val)
			}
			in.Mem.Locality = v
		case "stride":
			v, err := strconv.Atoi(val)
			if err != nil {
				return in, fmt.Errorf("bad stride %q", val)
			}
			in.Mem.StrideB = v
		case "mark":
			v, err := strconv.Atoi(val)
			if err != nil {
				return in, fmt.Errorf("bad mark ID %q", val)
			}
			in.MarkID = v
		case "bytes":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return in, fmt.Errorf("bad byte size %q", val)
			}
			in.Bytes = v
		default:
			return in, fmt.Errorf("unknown attribute %q", key)
		}
	}
	return in, nil
}

// intAttr parses "key=value" asserting the key.
func intAttr(s, key string) (int, error) {
	k, v, found := strings.Cut(s, "=")
	if !found || k != key {
		return 0, fmt.Errorf("expected %s=<int>, got %q", key, s)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, v)
	}
	return n, nil
}
