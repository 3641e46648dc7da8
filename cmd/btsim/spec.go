package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/simd"
)

// runSpecFile runs a world described by a netspec Spec JSON file (see
// examples/specs/) instead of a named scenario, under the exact replica
// discipline the btsimd service uses. A single run prints one Metrics
// window; -trials N prints the campaign Result over seeds seed..seed+N-1.
// Either way the JSON is byte-identical to what the service returns for
// the same spec, seeds and horizon — the CLI and the server share
// simd.RunReplica.
func runSpecFile(path string, seed, slots, settle uint64, trials, workers int, fork bool, progress func(string, int, int)) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("btsim: %v", err)
	}
	var spec netspec.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fatalf("btsim: decoding %s: %v", path, err)
	}
	if err := spec.Validate(); err != nil {
		fatalf("btsim: %s: %v", path, err)
	}

	if trials <= 1 {
		var m netspec.Metrics
		if fork {
			// One settled world, one fork with seed 0: the straight
			// continuation of the checkpoint — same discipline as
			// replica 0 of a forked campaign.
			ck, err := simd.SettleCheckpoint(nil, spec, seed, settle)
			if err != nil {
				fatalf("btsim: %v", err)
			}
			if m, err = simd.ForkReplica(nil, ck, 0, slots); err != nil {
				fatalf("btsim: %v", err)
			}
		} else {
			var err error
			if m, err = simd.RunReplica(nil, spec, seed, settle, slots); err != nil {
				fatalf("btsim: %v", err)
			}
		}
		printJSON(m)
		return
	}
	res, err := simd.Run(context.Background(), simd.Request{
		Spec:        &spec,
		Seeds:       simd.SeedRange{First: seed, Count: trials},
		Slots:       slots,
		SettleSlots: settle,
		Fork:        fork,
	}, runner.Config{Workers: workers, Progress: progress})
	if err != nil {
		fatalf("btsim: %v", err)
	}
	printJSON(res)
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		fatalf("btsim: encoding result: %v", err)
	}
	fmt.Printf("%s\n", out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
