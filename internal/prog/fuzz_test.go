package prog_test

import (
	"bytes"
	"testing"

	"phasetune/internal/isa"
	"phasetune/internal/prog"
	"phasetune/internal/prog/progtest"
)

// FuzzProgDecode feeds arbitrary bytes to the .ptprog decoder: no input may
// panic it, and every image it accepts must re-encode to bytes that decode
// and re-encode to themselves — the fixed point the image cache relies on
// when it keys programs by their encoding. The seed corpus (progtest.Corpus)
// is a handful of small builder-made programs plus hand-written images.
func FuzzProgDecode(f *testing.F) {
	for _, data := range progtest.Corpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := prog.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The fixed point below cannot catch a NaN probability, which
		// round-trips; the interpreter needs every one in [0,1].
		for _, pr := range p.Procs {
			for _, in := range pr.Instrs {
				if in.Op == isa.Branch && !(in.TakenProb >= 0 && in.TakenProb <= 1) {
					t.Fatalf("decoded branch probability %g outside [0,1]", in.TakenProb)
				}
			}
		}
		first := encodeBytes(t, p)
		again, err := prog.Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v\n%s", err, first)
		}
		if second := encodeBytes(t, again); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// encodeBytes encodes a program, failing on error.
func encodeBytes(t *testing.T, p *prog.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := prog.Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}
