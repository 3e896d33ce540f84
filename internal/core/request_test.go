package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	t.Parallel()
	in := Request{
		IDs: []string{"table1", "fig3"}, Quick: true, Congestion: true,
		Format: "json", Compare: true, PeriodNS: 50_000,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseRequest(data)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	norm, err := in.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if outJSON, normJSON := mustJSON(t, out), mustJSON(t, norm); outJSON != normJSON {
		t.Fatalf("round trip drifted:\n got %s\nwant %s", outJSON, normJSON)
	}
	if out.Digest() != norm.Digest() {
		t.Fatalf("round-trip digest drifted: %s vs %s", out.Digest(), norm.Digest())
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRequestStrictDecoding(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"ids":["table1"],"quik":true}`, "quik"},
		{"trailing data", `{"ids":["table1"]}{"ids":["table2"]}`, "trailing"},
		{"not json", `ids=table1`, "request"},
		{"no ids", `{}`, "no experiment ids"},
		{"empty id", `{"ids":["  "]}`, "empty experiment id"},
		// The engine is no longer selectable: a request naming one is
		// rejected like any other unknown field.
		{"bad engine", `{"ids":["table1"],"engine":"event"}`, `unknown field "engine"`},
		{"negative period", `{"ids":["table1"],"period_ns":-1}`, "negative counter period"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := ParseRequest([]byte(tc.body))
			if err == nil {
				t.Fatalf("decoded %s without error", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRequestUnknownIDListsValid(t *testing.T) {
	t.Parallel()
	_, err := ParseRequest([]byte(`{"ids":["tablezero"]}`))
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	var uerr *UnknownIDError
	if !errors.As(err, &uerr) {
		t.Fatalf("error is %T, want *UnknownIDError", err)
	}
	if uerr.ID != "tablezero" {
		t.Fatalf("UnknownIDError.ID = %q", uerr.ID)
	}
	for _, want := range []string{"table1", "fig3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid id %q", err, want)
		}
	}
}

func TestRequestNormalization(t *testing.T) {
	t.Parallel()
	a, err := Request{IDs: []string{"  Table1 "}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{IDs: []string{"table1"}, Format: "text"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.IDs[0] != "table1" {
		t.Fatalf("id not canonicalized: %q", a.IDs[0])
	}
	if a.Model == "" {
		t.Fatal("model not canonicalized to the default name")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("equivalent requests digest differently: %s vs %s", a.Digest(), b.Digest())
	}
}

func TestRequestDigestDiscriminates(t *testing.T) {
	t.Parallel()
	base := Request{IDs: []string{"table1"}}
	norm := func(r Request) Request {
		t.Helper()
		n, err := r.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	seen := map[string]string{}
	variants := map[string]Request{
		"base":       base,
		"quick":      {IDs: []string{"table1"}, Quick: true},
		"congestion": {IDs: []string{"table1"}, Congestion: true},
		"compare":    {IDs: []string{"table1"}, Compare: true},
		"format":     {IDs: []string{"table1"}, Format: "json"},
		"period":     {IDs: []string{"table1"}, PeriodNS: 1000},
		"model":      {IDs: []string{"table1"}, Model: "ecm"},
		"ids":        {IDs: []string{"table1", "table3"}},
	}
	for name, r := range variants {
		d := norm(r).Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("variants %q and %q collide on digest %s", name, prev, d)
		}
		seen[d] = name
	}
}

func TestValidIDsCoversBothRegistries(t *testing.T) {
	t.Parallel()
	ids := ValidIDs()
	if len(ids) < len(List()) {
		t.Fatalf("ValidIDs returned %d ids, fewer than the %d paper artifacts", len(ids), len(List()))
	}
	want := map[string]bool{"table1": false}
	for _, e := range Extensions() {
		want[strings.ToLower(e.ID)] = false
		break
	}
	for _, id := range ids {
		if _, ok := want[id]; ok {
			want[id] = true
		}
	}
	for id, found := range want {
		if !found {
			t.Fatalf("ValidIDs is missing %q", id)
		}
	}
}

func TestRequestMachineAndSpec(t *testing.T) {
	t.Parallel()
	norm := func(body string) (Request, error) { return ParseRequest([]byte(body)) }

	base, err := norm(`{"ids":["table1"]}`)
	if err != nil {
		t.Fatal(err)
	}
	named, err := norm(`{"ids":["table1"],"machine":"A64FX"}`)
	if err != nil {
		t.Fatalf("named stock machine rejected: %v", err)
	}
	if named.Digest() == base.Digest() {
		t.Fatal("machine field does not affect the digest")
	}
	opt, err := named.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Machine != "A64FX" {
		t.Fatalf("Options.Machine = %q, want A64FX", opt.Machine)
	}

	if _, err := norm(`{"ids":["table1"],"machine":"NoSuchBox"}`); err == nil ||
		!strings.Contains(err.Error(), "A64FX") {
		t.Fatalf("unknown machine should list the valid set, got %v", err)
	}

	const overlay = `{"base":"A64FX","name":"ReqTest-A","description":"w","clock_ghz":1.9}`
	inline, err := norm(`{"ids":["table1"],"spec":` + overlay + `}`)
	if err != nil {
		t.Fatalf("inline spec rejected: %v", err)
	}
	if inline.Machine != "ReqTest-A" {
		t.Fatalf("inline spec did not set Machine, got %q", inline.Machine)
	}
	if inline.Digest() == named.Digest() || inline.Digest() == base.Digest() {
		t.Fatal("inline-spec request must digest distinct from stock requests")
	}

	// Whitespace and key order are canonicalized away: same machine, one
	// digest (one cache slot).
	reordered, err := norm(`{"ids":["table1"],"spec":{"clock_ghz":1.9,  "name":"ReqTest-A","description":"w","base":"A64FX"}}`)
	if err != nil {
		t.Fatal(err)
	}
	if reordered.Digest() != inline.Digest() {
		t.Fatal("spec key order / whitespace changed the request digest")
	}

	// A named machine may accompany an inline spec only if they agree.
	if _, err := norm(`{"ids":["table1"],"machine":"A64FX","spec":` + overlay + `}`); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("machine/spec name mismatch should be rejected, got %v", err)
	}

	// A bad inline spec surfaces the decoder's field path.
	if _, err := norm(`{"ids":["table1"],"spec":{"base":"A64FX","name":"ReqTest-B","node":{"domain_bandwidth":"300 GB"}}}`); err == nil ||
		!strings.Contains(err.Error(), "node.domain_bandwidth") {
		t.Fatalf("bad inline spec should name the field, got %v", err)
	}
}
