package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// selfTest runs every workload at a tiny size: twice untraced at one seed
// (the fingerprints must match) and once traced (it must match them too).
// Every run must pass its checks and print each metric BENCHMARK.json
// names, with the unit it gives.
func selfTest(outdir string) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := sameUnits("end_to_end", spec.EndToEnd, endToEndUnits); err != nil {
		return err
	}
	if err := sameUnits("per_layer", spec.PerLayer, perLayerUnits); err != nil {
		return err
	}
	for _, w := range workloads {
		calls := map[string]int{"soak": 3, "hunt": 4, "fleet": 1}[w.name]
		var fps []uint64
		for _, traced := range []bool{false, false, true} {
			res, err := runWorkload(os.Stdout, w, 7, calls, traced, outdir)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				return fmt.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (traced %v): %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					return fmt.Errorf("%s (traced %v): metric %s printed as %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			fps = append(fps, res.fingerprint)
		}
		if fps[0] != fps[1] || fps[0] != fps[2] {
			return fmt.Errorf("%s: fingerprints differ across runs at one seed: %x", w.name, fps)
		}
	}
	return nil
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func sameUnits(section string, spec []specMetric, units map[string]string) error {
	if len(spec) != len(units) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark prints %d", section, len(spec), len(units))
	}
	for _, m := range spec {
		if units[m.Name] != m.Unit {
			return fmt.Errorf("BENCHMARK.json %s: %s has unit %q, the benchmark prints %q", section, m.Name, m.Unit, units[m.Name])
		}
	}
	return nil
}
