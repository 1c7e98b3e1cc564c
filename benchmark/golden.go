package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON pins the digests of the default seed, keyed
// "<workload>/<scale>/<seed>". Digests are pure functions of the generated
// inputs and the program's simulation and storage semantics, never of host
// speed, so a mismatch means behaviour changed. Regenerate an entry only for
// a change that is meant to alter results, from the digests a run prints.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden fails the run when a digest the golden file lists for this
// (workload, scale, seed) differs from the one the run produced.
func checkGolden(ctx *runCtx, res *result) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		res.fail("golden.json: %v", err)
		return
	}
	key := fmt.Sprintf("%s/%s/%d", res.Workload, ctx.sc.Name, ctx.seed)
	want, ok := golden[key]
	if !ok {
		res.note("no golden digests for %s", key)
		return
	}
	for name, digest := range want {
		got, ok := res.Digests[name]
		if !ok {
			continue // the traced pass does not produce every digest
		}
		if got != digest {
			res.fail("digest %q is %s, golden %s says %s", name, got, key, digest)
		}
	}
}
