package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"fepia/internal/core"
)

// decodeSeeds are the inputs every decoder fuzz target starts from: the
// canonical shapes fepiad's clients send and the odd cases the fast path
// must leave to encoding/json.
var decodeSeeds = []string{
	webFarm,
	`{`,
	`{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	`{"perturbation":{"orig":[0,0]},"norm":"l1","features":[{"min":-1,"impact":{"type":"terms","terms":[{"kind":"exp","index":1,"coeff":2,"p":0.1}]}}]}`,
	`{"perturbation":{"orig":[1e308,1e308]},"features":[{"max":1e308,"impact":{"type":"linear","coeffs":[1e308,1e308]}}]}`,
	// perfbench's linear and convex shapes, as json.Marshal writes them.
	`{"name":"warm-0","perturbation":{"name":"lambda","orig":[6.046602879796196,9.405090880450125,6.645600532184904]},"features":[{"name":"phi0","max":35.27189302178346,"impact":{"type":"linear","coeffs":[0,1.4212938738441186,0.8123284186542127],"offset":4.332985478009479}},{"name":"phi1","min":6.216934263346262,"max":21.7583046567373,"impact":{"type":"linear","coeffs":[1.9342396548434656,0,0],"offset":0.8796596848022452}}]}`,
	`{"name":"convex-0","perturbation":{"name":"lambda","orig":[2.5,7.25,3.125,9.5]},"features":[{"name":"queue0","max":512.5,"impact":{"type":"terms","terms":[{"kind":"power","index":1,"coeff":1.5,"p":2},{"kind":"power","index":2,"coeff":1.25,"p":3},{"kind":"xlogx","index":3,"coeff":1.75},{"kind":"exp","index":0,"coeff":0.125,"p":0.5}]}}]}`,
	// Outside the fast path's subset.
	`{"Name":"a","PERTURBATION":{"Orig":[1]},"features":[{"MAX":1,"impact":{"Type":"linear","coeffs":[1]}}]}`,
	`{"name":"a","name":"b","perturbation":{"orig":[1]},"perturbation":{"orig":[2]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	`{"name":null,"perturbation":{"orig":null},"features":[{"max":1,"min":null,"impact":{"type":"linear","coeffs":[1]}}]}`,
	`{"perturbation":{"orig":[1e400]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	`{"perturbation":{"orig":[-0]},"features":[{"max":-0,"impact":{"type":"linear","coeffs":[-0],"offset":-0}}]}`,
	`{"perturbation":{"orig":[01]},"features":[]}`,
	`{"perturbation":{"orig":[1.]},"features":[]}`,
	`{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"terms","terms":[{"kind":"power","index":1.0,"coeff":1,"p":2}]}}]}`,
	`{"name":"\ud83d\ude00 \ud800 \udc00x \u00e9","perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`,
	"{\"name\":\"\xff\xfe\xed\xa0\x80\",\"perturbation\":{\"orig\":[1]},\"features\":[{\"max\":1,\"impact\":{\"type\":\"linear\",\"coeffs\":[1]}}]}",
	`{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]} trailing`,
	`{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}{}`,
}

// sameDecode is the differential check of one fast-path decoder: where
// fast accepts data, json.Unmarshal must accept it too and decode the
// same value — equal under reflect.DeepEqual and re-marshalling to the
// same bytes, which also tells -0 from 0.
func sameDecode[T any](t *testing.T, data []byte, fast func([]byte) (T, bool)) {
	t.Helper()
	got, ok := fast(data)
	if !ok {
		return // encoding/json decides this input alone
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast path accepted what json.Unmarshal rejects (%v): %q", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path and json.Unmarshal disagree on %q:\n%#v\n%#v", data, got, want)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("fast path and json.Unmarshal values re-marshal differently:\n%s\n%s", gb, wb)
	}
}

// sameError checks that two decode-and-validate paths agree on accept or
// reject and, on reject, on the error's bytes and ValidationError path.
func sameError(t *testing.T, data []byte, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("verdicts differ on %q: %v vs %v", data, got, want)
	}
	if got == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Fatalf("errors differ on %q:\n%s\n%s", data, got, want)
	}
	gv, gok := got.(*ValidationError)
	wv, wok := want.(*ValidationError)
	if gok != wok || (gok && gv.Path != wv.Path) {
		t.Fatalf("ValidationError paths differ on %q: %#v vs %#v", data, got, want)
	}
}

// FuzzParse checks that arbitrary byte input never panics the spec parser
// and that everything it accepts is actually analysable (the invariant
// downstream tools rely on). Its differential mode holds Parse's fast
// path to json.Unmarshal: the same verdict, the same File, the same error
// bytes. Run the seeds with `go test`; explore with
// `go test -fuzz='^FuzzParse$' ./internal/spec`.
func FuzzParse(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data, decodeFile)
		sys, err := Parse(data)
		var ref *System
		var f File
		refErr := json.Unmarshal(data, &f)
		if refErr != nil {
			refErr = malformed(refErr)
		} else {
			ref, refErr = Build(f)
		}
		sameError(t, data, err, refErr)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if !reflect.DeepEqual(sys.File, ref.File) || sys.RouteKey() != ref.RouteKey() {
			t.Fatalf("Parse and the json.Unmarshal path built different systems from %q", data)
		}
		// Accepted specs must be analysable without panicking. Errors are
		// legitimate (e.g. non-ℓ₂ norm with a non-linear impact).
		a, err := core.Analyze(sys.Features, sys.Perturbation, sys.Options)
		if err != nil {
			return
		}
		// And the result must be encodable.
		_ = Encode(sys.Name, a)
	})
}

// FuzzParseBatch is FuzzParse's differential mode for batch envelopes.
func FuzzParseBatch(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(`{"systems":[` + s + `]}`))
	}
	f.Add([]byte(`{"systems":[` + decodeSeeds[0] + `,` + decodeSeeds[5] + `]}`))
	f.Add([]byte(`{"systems":[]}`))
	f.Add([]byte(`{"systems":null}`))
	f.Add([]byte(`{"Systems":[` + decodeSeeds[2] + `],"systems":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data, decodeBatch)
		systems, err := ParseBatch(data)
		var req BatchRequest
		refErr := json.Unmarshal(data, &req)
		var ref []*System
		if refErr != nil {
			refErr = malformed(refErr)
		} else if len(req.Systems) == 0 {
			refErr = invalidf("systems", "no systems")
		} else {
			for i, f := range req.Systems {
				sys, err := Build(f)
				if err != nil {
					refErr = PrefixPath("systems["+strconv.Itoa(i)+"]", err)
					break
				}
				ref = append(ref, sys)
			}
		}
		sameError(t, data, err, refErr)
		if err != nil {
			return
		}
		for i := range systems {
			if !reflect.DeepEqual(systems[i].File, ref[i].File) {
				t.Fatalf("systems[%d] differ on %q", i, data)
			}
		}
	})
}

// FuzzWatchRequest is FuzzParse's differential mode for the /v1/watch
// envelope.
func FuzzWatchRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(`{"system":` + s + `,"points":[[1,2],[3,4]]}`))
	}
	f.Add([]byte(`{"system":` + decodeSeeds[2] + `,"points":[]}`))
	f.Add([]byte(`{"system":` + decodeSeeds[2] + `,"points":[[],[-0],[1e400]]}`))
	f.Add([]byte(`{"points":[[1]],"system":` + decodeSeeds[2] + `}`))
	f.Add([]byte(`{"system":null,"points":null}`))
	f.Add([]byte(`{"points":[[1]],"Points":[[2]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data, decodeWatch)
		got, err := DecodeWatchRequest(data)
		var want WatchRequest
		refErr := json.Unmarshal(data, &want)
		if refErr != nil {
			refErr = malformed(refErr)
		}
		sameError(t, data, err, refErr)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeWatchRequest and json.Unmarshal disagree on %q", data)
		}
	})
}
