package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// goldenJSON holds per-cell digests of every grid for the default seeds,
// written by -update-golden.
//
//go:embed golden.json
var goldenJSON []byte

// golden maps each grid to its cells' sha256 digests of dist.EncodeResult,
// in grid order.
type golden struct {
	Seeds []uint64            `json:"seeds"`
	Grids map[string][]string `json:"grids"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// expected returns the golden digests of w's grid for these inputs, or nil
// when none are recorded for them.
func (g golden) expected(w workload, in inputs) []string {
	if in.run != 0 || !slices.Equal(g.Seeds, in.seeds) {
		return nil
	}
	return g.Grids[w.gridName()]
}

// goldenPath is golden.json in the source directory this binary was built
// from, the file goldenJSON embeds, wherever the command runs.
func goldenPath() (string, error) {
	_, src, _, ok := runtime.Caller(0)
	if !ok || !filepath.IsAbs(src) {
		return "", errors.New("cannot locate the bench source directory (built with -trimpath?)")
	}
	return filepath.Join(filepath.Dir(src), "golden.json"), nil
}

// updateGolden runs every workload once in a fresh process and rewrites
// golden.json with the digests of each grid. Workloads sharing a grid must
// agree.
func updateGolden(ctx context.Context, in inputs) error {
	if in.run != 0 {
		return fmt.Errorf("goldens are recorded with -seed 0")
	}
	path, err := goldenPath()
	if err != nil {
		return err
	}
	g := golden{Seeds: in.seeds, Grids: map[string][]string{}}
	for _, w := range workloads {
		rep, err := spawnRep(ctx, w, in, "")
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(rep.Errors) > 0 {
			return fmt.Errorf("%s: %s", w.name, rep.Errors[0])
		}
		prev, ok := g.Grids[w.gridName()]
		if ok && !slices.Equal(prev, rep.Digests) {
			return fmt.Errorf("%s: digests differ from the %s grid's", w.name, w.gridName())
		}
		g.Grids[w.gridName()] = rep.Digests
		fmt.Printf("%-11s %d cells\n", w.name, len(rep.Digests))
	}
	blob, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
