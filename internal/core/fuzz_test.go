package core

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeRequest hardens the HTTP request decoder: DecodeRequest must
// never panic, and an accepted request, re-marshalled and decoded again,
// must normalize to the same Digest (the serve cache key).
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"ids":["table1","fig3"],"quick":true,"congestion":true,"format":"json","compare":true,"period_ns":50000}`,
		`{"ids":["table1"],"quik":true}`,
		`{"ids":["table1"]}{"ids":["table2"]}`,
		`ids=table1`,
		`{}`,
		`{"ids":["  "]}`,
		`{"ids":["table1"],"engine":"event"}`,
		`{"ids":["table1"],"period_ns":-1}`,
		`{"ids":["tablezero"]}`,
		`{"ids":["  Table1 "]}`,
		`{"ids":["table1","table3"],"model":"ecm"}`,
		`{"ids":["table1"],"machine":"A64FX"}`,
		`{"ids":["table1"],"machine":"NoSuchBox"}`,
		`{"ids":["table1"],"spec":{"base":"A64FX","name":"FuzzSeed-A","description":"w","clock_ghz":1.9}}`,
		`{"ids":["table1"],"spec":{"base":"A64FX","name":"FuzzSeed-B","node":{"domain_bandwidth":"300 GB"}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshalling accepted request: %v", err)
		}
		req2, err := ParseRequest(again)
		if err != nil {
			t.Fatalf("re-decoding accepted request %s: %v", again, err)
		}
		if req.Digest() != req2.Digest() {
			t.Fatalf("digest drifted across a round trip: %s vs %s (%s)", req.Digest(), req2.Digest(), again)
		}
	})
}
