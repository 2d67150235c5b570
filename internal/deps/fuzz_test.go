package deps

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeXML: DecodeXML reads every -deps file the CLI loads and the
// legacy XML chain a restarted daemon replays, so it must never panic on
// hostile bytes, and whatever it accepts must be valid records that re-encode
// and decode to equal records. The seeds are the datasets cmd/depgen writes
// (testdata/depgen, pinned by its TestGenerateIsPinned).
func FuzzDecodeXML(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "depgen", "*.xml"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no depgen seeds: %v", err)
	}
	for _, path := range seeds {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`<dependencies><software pgm="P" hw="S1" dep=" a, ,b "/></dependencies>`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		recs, err := DecodeXML(bytes.NewReader(blob))
		if err != nil {
			return
		}
		for i, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("decoded record %d is invalid: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := EncodeXML(&buf, recs); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeXML(&buf)
		if err != nil {
			t.Fatalf("decode of the re-encoding: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip: %d records, then %d", len(recs), len(again))
		}
		for i := range recs {
			if !recs[i].Equal(again[i]) {
				t.Fatalf("record %d: %v, then %v", i, recs[i], again[i])
			}
		}
	})
}
