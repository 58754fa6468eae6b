package online

import (
	"sort"

	"phasetune/internal/exec"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/reuse"
)

// OracleDecisions computes the perfect-knowledge placement of an
// instrumented image: for every phase type, the instruction-weighted mean
// of the static per-block IPC estimate on each core type (exec.BlockIPC at
// the solo L2 share) feeds the paper's Algorithm 2, and the phase's own
// shared-cache signature — sharper than the image-level aggregate the
// runtime policies carry, as befits a clairvoyant baseline — rides along
// as Decision.Mem. The oracle is the upper bound of the showdown:
// placements are exact from the first mark, with zero monitoring overhead
// and zero misprediction.
//
// Every decision is the run's engine's Decide, at the engine's δ, with the
// spill-pricing rates its arbitration needs; only a contention-priced
// run's marks claim capacity with them (OracleHook).
//
// The image must have been instrumented under the same typing options with
// no injected clustering error (block typing is re-derived here and must
// match the mark types the instrumenter embedded).
func OracleDecisions(img *exec.Image, topts phase.Options, cm exec.CostModel,
	eng *place.Engine) (map[phase.Type]place.Decision, error) {

	m := eng.Machine()
	typing, err := phase.ClusterBlocks(img.Prog, img.Graphs, topts)
	if err != nil {
		return nil, err
	}
	pars := exec.ParamsFor(cm, m)
	// Every core type is priced at group 0's L2, not at its own group's as
	// the scheduler prices it: bench/golden.json pins the hex and tri oracle
	// bytes this produces. ROADMAP item 9 (shared L2 contending in
	// execution) re-measures the oracle and mends this with it.
	shareKB := m.L2s[0].SizeKB

	// Per phase type, per core type: instruction-weighted IPC sums plus
	// reference-weighted reuse aggregation.
	type acc struct {
		ipcW    []float64
		w       float64
		l2W     float64
		prof    reuse.Profile
		memRefs int
	}
	accs := map[phase.Type]*acc{}
	for pi, g := range img.Graphs {
		for _, blk := range g.Blocks {
			pt := typing.TypeOf(phase.BlockKey{Proc: pi, Block: blk.ID})
			if pt == phase.Untyped {
				continue
			}
			a, ok := accs[pt]
			if !ok {
				a = &acc{ipcW: make([]float64, len(pars))}
				accs[pt] = a
			}
			mix := blk.Mix()
			w := float64(mix.Total())
			if w <= 0 {
				continue
			}
			for t := range pars {
				a.ipcW[t] += w * exec.BlockIPC(blk, &pars[t], cm, shareKB)
			}
			a.w += w
			if memRefs := mix.MemOps(); memRefs > 0 {
				prof := phase.BlockProfile(blk)
				a.l2W += float64(memRefs) * prof.L1MissFraction()
				a.prof = reuse.Combine(a.prof, a.memRefs, prof, memRefs)
				a.memRefs += memRefs
			}
		}
	}

	// Every decision is a trace event, so the types go in order: map order
	// would make two traces of one run differ.
	types := make([]phase.Type, 0, len(accs))
	for pt := range accs {
		types = append(types, pt)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	out := make(map[phase.Type]place.Decision, len(accs))
	for _, pt := range types {
		a := accs[pt]
		if a.w <= 0 {
			continue
		}
		ipc := make([]float64, len(a.ipcW))
		for t := range ipc {
			ipc[t] = a.ipcW[t] / a.w
		}
		dec := eng.Decide(ipc)
		dec.Mem = &place.MemStats{L2RefsPerInstr: a.l2W / a.w, Profile: a.prof}
		out[pt] = dec
	}
	return out, nil
}

// OracleHook is the per-process mark hook of oracle runs: every phase mark
// resolves to its precomputed decision instantly — no sampling, no
// counters, no decision latency. On an unpriced engine the mark pins the
// section to every core of the chosen type; on a contention-priced engine
// (place.Engine.Priced) the decision is a capacity claim, and the mask
// comes out of its arbitration — quota spills, contention pricing, and
// relief included. It implements exec.MarkHook.
type OracleHook struct {
	eng  *place.Engine
	img  *exec.Image
	decs map[phase.Type]place.Decision
}

// NewOracleHook builds the hook on the run's engine; decs is the image's
// OracleDecisions table (one map serves every process executing the
// image).
func NewOracleHook(eng *place.Engine, img *exec.Image, decs map[phase.Type]place.Decision) *OracleHook {
	return &OracleHook{eng: eng, img: img, decs: decs}
}

// OnMark implements exec.MarkHook.
func (h *OracleHook) OnMark(p *exec.Process, markID, coreID int) exec.MarkAction {
	dec, ok := h.decs[h.img.MarkType(markID)]
	if !ok {
		return exec.MarkAction{}
	}
	if !h.eng.Priced() {
		return exec.MarkAction{Mask: h.eng.TypeMask(dec.Choice)}
	}
	mask, spilled := h.eng.Place(p.PID, dec)
	p.SetSpilled(spilled)
	return exec.MarkAction{Mask: mask}
}

// OnExit implements exec.MarkHook: withdraw the process's capacity claim.
func (h *OracleHook) OnExit(p *exec.Process) {
	if !h.eng.Priced() {
		return
	}
	h.eng.Leave(p.PID)
	p.SetSpilled(false)
}
