package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"
)

// encodingJSON renders v the way fepiad rendered every response before
// AppendJSON: a json.Encoder, two-space indented when indent is set.
func encodingJSON(v any, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// requireSameBytes checks AppendJSON against json.Encoder on v in both
// layouts, appending after a non-empty prefix: the same bytes, or the
// same error with dst left as it was.
func requireSameBytes(t *testing.T, v any) {
	t.Helper()
	for _, indent := range []bool{true, false} {
		want, werr := encodingJSON(v, indent)
		prefix := []byte("prefix")
		got, gerr := AppendJSON(prefix, v, indent)
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("indent=%v: errors differ: encoding/json %v, AppendJSON %v", indent, werr, gerr)
			}
			if string(got) != "prefix" {
				t.Fatalf("indent=%v: failed AppendJSON changed dst to %q", indent, got)
			}
			continue
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("indent=%v: bytes differ\nencoding/json:\n%s\nAppendJSON:\n%s", indent, want, got[min(len(prefix), len(got)):])
		}
	}
}

// degradedMeta is m as a degraded answer carries it: the marker set and
// the radii from the cache. The meta block is a degraded result's only
// "degraded" key.
func degradedMeta(m *ResponseMeta) *ResponseMeta {
	var d ResponseMeta
	if m != nil {
		d = *m
	}
	d.Degraded, d.Cache = true, CacheHit
	return &d
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{1e-7, 1e-6, 1e20, 1e21, -1e-7, -1e21, 9.999999999999999e20, 0.000001234,
		negZero, 0, -1, 5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, 1.0 / 3, 123456789.125, 1e-100}
	names := []string{"", "plain", "<script>&amp;</script>", "\u2028line\u2029para", "bad\xffutf8\xc3",
		"ctl\x00\x01\x1f\b\f\n\r\t\"\\/", "λ π ∞ \U0001f642", "\ufffd", "\x7f"}
	full := &ResponseMeta{Node: "node-<a>", Forwarded: true, Degraded: true, Cache: CacheHit, Anytime: true}
	radii := []RadiusJSON{
		{Feature: "phi0", Radius: 1.5, Kind: "exact", Boundary: floats},
		{Feature: "unreachable", Radius: -1, Kind: "unreachable"},
		{Feature: "empty-boundary", Radius: negZero, Kind: "lower", Boundary: []float64{}},
	}

	cases := map[string]any{}
	for i, f := range floats {
		cases[fmt.Sprintf("float-%d", i)] = ResultJSON{Perturbation: "p", Robustness: f,
			Radii: []RadiusJSON{{Feature: "f", Radius: f, Kind: "exact", Boundary: []float64{f, -f}}}}
	}
	for i, s := range names {
		cases[fmt.Sprintf("name-%d", i)] = ResultJSON{Name: s, Perturbation: s, Units: s, Critical: s,
			Radii: []RadiusJSON{{Feature: s, Kind: s}}, Meta: &ResponseMeta{Node: s, Cache: s}}
		cases[fmt.Sprintf("error-name-%d", i)] = ErrorJSON{Error: s, Kind: "internal", Path: s}
	}
	for _, radii := range map[string][]RadiusJSON{"nil": nil, "empty": {}, "full": radii} {
		for _, meta := range []*ResponseMeta{nil, {}, full} {
			tag := fmt.Sprintf("%d-radii-%v-meta", len(radii), meta)
			if radii == nil {
				tag = "nil-" + tag
			}
			cases["result-"+tag] = ResultJSON{Name: "n", Perturbation: "λ", Units: "s", Robustness: 2,
				Critical: "phi0", Radii: radii, Meta: meta}
			cases["degraded-"+tag] = ResultJSON{Perturbation: "π", Radii: radii, Meta: degradedMeta(meta)}
			cases["frame-"+tag] = WatchFrame{Step: 7, Orig: []float64{1, 2.5}, Robustness: -1,
				Critical: "c", Changed: radii, ChangedCount: len(radii), Meta: meta}
			cases["frame-nil-orig-"+tag] = WatchFrame{Changed: radii, Meta: meta}
			cases["frame-empty-orig-"+tag] = WatchFrame{Orig: []float64{}, Changed: radii, Meta: meta}
			cases["batch-"+tag] = BatchResponse{Results: []ResultJSON{{Perturbation: "a", Radii: radii, Meta: meta},
				{Name: "b", Perturbation: "b"}}, Meta: meta}
		}
	}
	cases["batch-nil-results"] = BatchResponse{}
	cases["batch-empty-results"] = BatchResponse{Results: []ResultJSON{}, Meta: &ResponseMeta{}}
	for _, kind := range []string{"invalid_spec", "unsupported", "solver_failure", "timeout", "overloaded",
		"shutting_down", "circuit_open", "degraded", "internal", "peer_circuit_open", "peer_unreachable"} {
		cases["error-"+kind] = ErrorJSON{Error: "spec: features[0]: \"x\" <bad>", Kind: kind}
		cases["error-path-"+kind] = ErrorJSON{Error: "e", Kind: kind, Path: "systems[3].features[0].impact"}
	}
	cases["error-empty"] = ErrorJSON{}
	cases["summary-ok"] = WatchSummary{Done: true, Steps: 64, TotalChanged: 99}
	cases["summary-error"] = WatchSummary{Done: true, Steps: 3, Error: "deadline <exceeded>", ErrorKind: "timeout"}
	cases["summary-zero"] = WatchSummary{}
	// Values outside the wire types go through encoding/json unchanged.
	cases["other-map"] = map[string]any{"b": 1.5, "a": []int{1}}
	cases["other-pointer"] = &ResultJSON{Perturbation: "p"}

	for name, v := range cases {
		t.Run(name, func(t *testing.T) { requireSameBytes(t, v) })
	}
}

func TestAppendJSONNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []any{
			ResultJSON{Robustness: bad},
			ResultJSON{Radii: []RadiusJSON{{Boundary: []float64{1, bad}}}},
			BatchResponse{Results: []ResultJSON{{}, {Radii: []RadiusJSON{{Radius: bad}}}}},
			WatchFrame{Orig: []float64{bad}},
		} {
			if _, err := AppendJSON(nil, v, true); err == nil {
				t.Fatalf("AppendJSON(%v) accepted a non-finite float", v)
			}
			requireSameBytes(t, v)
		}
	}
}

// FuzzAppendResult holds AppendJSON to json.Encoder on random ResultJSON
// values, in both layouts.
func FuzzAppendResult(f *testing.F) {
	f.Add("web farm", "λ", "req/s", 353.5533905932738, 1e-7, -0.0, uint8(3), uint8(0xff), "node-1")
	f.Add("", "", "", 1e21, 5e-324, -1.0, uint8(0), uint8(0), "")
	f.Add("<&>\u2028", "\xff", "\x00", 1e20, 1e-6, 123.456, uint8(1), uint8(0x0f), "\ufffd")
	f.Fuzz(func(t *testing.T, name, pert, units string, rob, radius, x float64, nRadii, flags uint8, node string) {
		r := ResultJSON{Name: name, Perturbation: pert, Units: units, Robustness: rob, Critical: node}
		if flags&0x01 != 0 {
			r.Meta = &ResponseMeta{Node: node, Forwarded: flags&0x02 != 0, Degraded: flags&0x04 != 0,
				Cache: units, Anytime: flags&0x08 != 0}
		}
		if flags&0x20 != 0 {
			r.Radii = []RadiusJSON{}
		}
		for i := 0; i < int(nRadii%8); i++ {
			var boundary []float64
			for j := 0; j < i; j++ {
				boundary = append(boundary, x*float64(j)-radius)
			}
			if i == 1 && flags&0x40 != 0 {
				boundary = []float64{}
			}
			r.Radii = append(r.Radii, RadiusJSON{Feature: name + pert, Radius: radius * float64(i), Kind: units, Boundary: boundary})
		}
		requireSameBytes(t, r)
		requireSameBytes(t, BatchResponse{Results: []ResultJSON{r, r}, Meta: r.Meta})
		requireSameBytes(t, WatchFrame{Step: int(nRadii), Orig: []float64{x, rob}, Robustness: radius,
			Critical: name, Changed: r.Radii, ChangedCount: len(r.Radii), Meta: r.Meta})
	})
}

// routeKeyDocs are fixed spec documents with the ring keys they had when
// RouteKey was still computed eagerly in Build; a change to either
// pins ring placement to a new layout.
var routeKeyDocs = []struct {
	doc string
	key uint64
}{
	{`{"name":"web farm","perturbation":{"name":"λ","orig":[300,200],"units":"req/s"},"features":[{"name":"T(edge)","max":1000,"impact":{"type":"linear","coeffs":[1,1],"offset":0}},{"name":"T(db)","max":250000,"impact":{"type":"terms","terms":[{"kind":"power","index":0,"coeff":2,"p":2},{"kind":"linear","index":1,"coeff":3}]}}]}`,
		0x2e3f894ab3c54605},
	{`{"name":"warm-0","perturbation":{"name":"lambda","orig":[3.25,7.5,1e-7,9.875]},"features":[{"name":"phi0","max":41.5,"impact":{"type":"linear","coeffs":[0.5,0,1.75,0],"offset":2.25}},{"name":"phi1","min":-0,"max":1e21,"impact":{"type":"linear","coeffs":[0,1.5,0,0.625]}}]}`,
		0xa98eebbc8c69da79},
	{`{"perturbation":{"orig":[1,2,3],"discrete":true},"norm":"linf","features":[{"min":0.5,"impact":{"type":"linear","coeffs":[1,2,3]}}],"anytime":true}`,
		0x15ffd08dd7582708},
	{"{\"name\":\"q <&> \u2028\",\"perturbation\":{\"name\":\"x\",\"orig\":[1.5,2.5]},\"norm\":\"l1\",\"features\":[{\"name\":\"queue0\",\"max\":80,\"impact\":{\"type\":\"terms\",\"terms\":[{\"kind\":\"exp\",\"index\":1,\"coeff\":0.15,\"p\":0.5},{\"kind\":\"xlogx\",\"index\":0,\"coeff\":1.25}]}}]}",
		0x11d217d17c28b6f6},
}

// reorderKeys re-renders a document through a generic map, which sorts
// every object's keys and re-indents it: the same request, different
// bytes.
func reorderKeys(t *testing.T, doc string) string {
	t.Helper()
	var m any
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(m, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRouteKeyPinned(t *testing.T) {
	for i, tc := range routeKeyDocs {
		variants := []string{tc.doc, "\n\t " + strings.ReplaceAll(tc.doc, ",", " ,\r\n ") + " \n", reorderKeys(t, tc.doc)}
		for j, doc := range variants {
			sys, err := Parse([]byte(doc))
			if err != nil {
				t.Fatalf("doc %d variant %d: %v", i, j, err)
			}
			canon, err := json.Marshal(sys.File)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(canon)
			if got := sys.RouteKey(); got != h.Sum64() || got != tc.key {
				t.Errorf("doc %d variant %d: RouteKey %#x, FNV-64a(json.Marshal(File)) %#x, pinned %#x",
					i, j, got, h.Sum64(), tc.key)
			}
		}
	}
}

// fastPathCases are documents inside the decoders' canonical subset.
var fastPathCases = []string{
	webFarm,
	`{"perturbation":{"orig":[]},"features":[]}`,
	`{"name":"esc \"q\" \\ \/ \b\f\n\r\t \u00e9 \u2028 \u2029 \ufffd","perturbation":{"name":"λ","orig":[-0,0.5,1E+2,-1e-7,123456789012345678901234567890]},"features":[{"min":-0.0,"impact":{"type":"terms","terms":[{"kind":"power","index":-0,"coeff":1,"p":2}]}}]}`,
	" \t\r\n{ \"perturbation\" : { \"orig\" : [ 1 , 2 ] } , \"anytime\" : false } \n",
}

func TestDecodeFastPathAccepts(t *testing.T) {
	docs := append([]string{}, fastPathCases...)
	for _, tc := range routeKeyDocs {
		docs = append(docs, tc.doc, reorderKeys(t, tc.doc))
	}
	for _, doc := range docs {
		got, ok := decodeFile([]byte(doc))
		if !ok {
			t.Fatalf("fast path declined a canonical document: %s", doc)
		}
		var want File
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path decoded %+v, json.Unmarshal %+v", got, want)
		}
	}
	batch := `{"systems":[` + routeKeyDocs[0].doc + `,` + routeKeyDocs[2].doc + `]}`
	if got, ok := decodeBatch([]byte(batch)); !ok || len(got.Systems) != 2 {
		t.Fatalf("fast path on a batch: ok=%v, %d systems", ok, len(got.Systems))
	}
	watch := `{"system":` + routeKeyDocs[2].doc + `,"points":[[1,2,3],[],[4,5,6]]}`
	got, ok := decodeWatch([]byte(watch))
	var want WatchRequest
	if err := json.Unmarshal([]byte(watch), &want); err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path on a watch request: ok=%v\n%+v\n%+v", ok, got, want)
	}
}

func TestDecodeFastPathDeclines(t *testing.T) {
	base := `{"perturbation":{"orig":[1]},"features":[{"max":1,"impact":{"type":"linear","coeffs":[1]}}]}`
	for name, doc := range map[string]string{
		"mixed-case key":  `{"Perturbation":{"orig":[1]}}`,
		"upper key":       `{"perturbation":{"ORIG":[1]}}`,
		"duplicate key":   `{"name":"a","name":"b"}`,
		"duplicate obj":   `{"perturbation":{"orig":[1]},"perturbation":{"name":"x"}}`,
		"unknown key":     `{"extra":1}`,
		"key of other":    `{"orig":[1]}`,
		"escaped key":     `{"n\u0061me":"x"}`,
		"null value":      `{"name":null}`,
		"null bound":      `{"features":[{"min":null}]}`,
		"null document":   `null`,
		"out of range":    `{"perturbation":{"orig":[1e400]}}`,
		"leading zero":    `{"perturbation":{"orig":[01]}}`,
		"bare point":      `{"perturbation":{"orig":[1.]}}`,
		"bare exponent":   `{"perturbation":{"orig":[1e]}}`,
		"plus sign":       `{"perturbation":{"orig":[+1]}}`,
		"fractional int":  `{"features":[{"impact":{"terms":[{"index":1.0}]}}]}`,
		"exponent int":    `{"features":[{"impact":{"terms":[{"index":1e0}]}}]}`,
		"huge int":        `{"features":[{"impact":{"terms":[{"index":99999999999999999999}]}}]}`,
		"high surrogate":  `{"name":"\ud83d\ude00"}`,
		"lone surrogate":  `{"name":"\udc00"}`,
		"invalid utf8":    "{\"name\":\"\xff\"}",
		"utf8 surrogate":  "{\"name\":\"\xed\xa0\x80\"}",
		"control char":    "{\"name\":\"a\nb\"}",
		"bad escape":      `{"name":"\x"}`,
		"trailing":        base + `x`,
		"second value":    base + ` {}`,
		"trailing comma":  `{"perturbation":{"orig":[1,]}}`,
		"string number":   `{"perturbation":{"orig":["1"]}}`,
		"number string":   `{"name":1}`,
		"bool typo":       `{"anytime":tru}`,
		"array document":  `[]`,
		"empty":           ``,
		"truncated":       base[:len(base)-1],
		"object as array": `{"features":{}}`,
	} {
		if _, ok := decodeFile([]byte(doc)); ok {
			t.Errorf("%s: fast path accepted %q", name, doc)
		}
	}
}
