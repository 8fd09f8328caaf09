package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// oldMetaTrace is a three-rank trace as the recorder wrote it while
// runs still carried a neighbor-topology axis: its meta line names
// "topo":"full", a field the Event decoder no longer has.
const oldMetaTrace = `{"ev":"meta","rank":0,"n":3,"scenario":"quickstart","mech":"naive","term":"ds","topo":"full"}
{"ev":"state","rank":0,"peer":1,"kind":1}
{"ev":"decide","rank":0,"work":120,"view":[0,0,0],"sel":[1,2],"slaves":2}
{"ev":"send","rank":0,"peer":1,"work":60}
{"ev":"send","rank":0,"peer":2,"work":60}
{"ev":"recv","rank":1,"t":0.000003,"work":60}
{"ev":"recv","rank":2,"t":0.000003,"work":60}
{"ev":"start","rank":1,"t":0.000003,"spin":0.001}
{"ev":"start","rank":2,"t":0.000003,"spin":0.001}
{"ev":"done","rank":1,"t":0.001003,"spin":0.001}
{"ev":"done","rank":2,"t":0.001003,"spin":0.001}
{"ev":"final","rank":0}
{"ev":"final","rank":1,"executed":1}
{"ev":"final","rank":2,"executed":1}
`

// TestTraceWithRetiredTopoFieldValidates keeps traces recorded before
// the topology axis was retired readable: ReadFile ignores the unknown
// meta field and the run validates clean.
func TestTraceWithRetiredTopoFieldValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inproc.jsonl")
	if err := os.WriteFile(path, []byte(oldMetaTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	r := Validate(events)
	if !r.OK() {
		t.Fatalf("old trace flagged: %v", r.Violations)
	}
	if r.N != 3 || r.Mech != "naive" || r.States != 1 || r.Decides != 1 || r.Finals != 3 {
		t.Fatalf("bad tallies: n=%d mech=%q states=%d decides=%d finals=%d", r.N, r.Mech, r.States, r.Decides, r.Finals)
	}
}
