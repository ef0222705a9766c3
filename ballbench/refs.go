package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	ballerino "repro"
	"repro/internal/obs"
)

// refsJSON holds the simulated cycles, committed μops and energy of every
// spec in allSpecs, recorded with -write-refs. The simulator is
// deterministic, so a change that only makes it faster leaves every value
// identical.
//
//go:embed refs.json
var refsJSON []byte

type ref struct {
	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	EnergyPJ  float64 `json:"energy_pj"`
}

func loadRefs() (map[string]ref, error) {
	refs := map[string]ref{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// observed is what one simulation reported.
type observed struct {
	Cycles, Committed, Issued uint64
	EnergyPJ, IPC             float64
}

func observe(m *obs.Manifest) observed {
	return observed{Cycles: m.Stats.Cycles, Committed: m.Stats.Committed, Issued: m.Stats.Issued,
		EnergyPJ: m.Energy.TotalPJ, IPC: m.Stats.IPC}
}

func (o observed) ref() ref {
	return ref{Cycles: o.Cycles, Committed: o.Committed, EnergyPJ: o.EnergyPJ}
}

// verify checks one run against its reference: a run that falls short of
// its μop budget or whose simulated statistics differ is wrong.
func verify(refs map[string]ref, s spec, o observed) error {
	want, ok := refs[s.key()]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference", s.key())
	case o.Committed < uint64(s.Ops):
		return fmt.Errorf("%s: committed %d of a %d-μop budget", s.key(), o.Committed, s.Ops)
	case o.ref() != want:
		return fmt.Errorf("%s: got %+v, reference %+v", s.key(), o.ref(), want)
	}
	return nil
}

// writeRefs simulates every spec any seed can draw and writes the table.
func writeRefs(path string) error {
	specs := allSpecs()
	cfgs := make([]ballerino.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = s.config()
	}
	b := ballerino.RunAll(context.Background(), cfgs, ballerino.BatchOptions{Parallelism: workers})
	refs := map[string]ref{}
	for i, r := range b.Results {
		if r.Err != nil {
			return r.Err
		}
		refs[specs[i].key()] = observe(r.Result.Manifest).ref()
	}
	// One entry a line, in key order, so that a change to the table diffs
	// line by line.
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(refs[k])
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&buf, "%s: %s%s", kb, vb, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
