package serve

import (
	"bytes"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the /v1/jobs
// admission path: decoding and JobSpec.Validate under the server's default
// limits. No input may panic, and a flow job that passes admission must
// build a valid scenario within the duration limit: the worker builds the
// same scenario after the client was told the job is accepted.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"flow","operator":"china-unicom","scenario":"stationary","duration":"30s","seed":7}`,
		`{"kind":"flow","duration":45000000000,"faults":"blackout@5s+2s; storm@10s+20s n=3 o=4s"}`,
		`{"kind":"experiment","run":["table1","fig10"],"quick":true,"flows_per_row":1,"duration":"15s"}`,
		`{"kind":"campaign","quick":true,"timeout_ms":5000,"trace":{"id":"t1","parent":"s1"}}`,
		`{"kind":"unit","unit":{"seed":1,"duration":"30s","flows_per_row":2,"start":0,"end":2}}`,
	} {
		f.Add([]byte(seed))
	}
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 512 {
			t.Skip("inputs over 512 bytes spend the fuzz time in the minimizer")
		}
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil || spec.Validate(lim) != nil || spec.Kind != KindFlow {
			return
		}
		sc, err := spec.flowScenario(lim)
		if err != nil {
			t.Fatalf("admitted flow job %s has no scenario: %v", body, err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("admitted flow job %s builds an invalid scenario: %v", body, err)
		}
		if sc.FlowDuration > lim.MaxFlowDuration {
			t.Fatalf("admitted flow job %s runs %v, over the limit %v", body, sc.FlowDuration, lim.MaxFlowDuration)
		}
	})
}
