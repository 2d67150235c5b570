package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"indaas/internal/deps"
)

// TestGenerateIsPinned pins the Table 1 XML bytes every -kind writes, by
// SHA-256. The same bytes are committed as the seed corpus of deps'
// FuzzDecodeXML (internal/deps/testdata/depgen), so the file next to each
// hash must hash to it too. Never regenerate a hash to make a change pass:
// a dataset that moves is a behaviour change of its generator.
func TestGenerateIsPinned(t *testing.T) {
	for _, tc := range []struct {
		kind       string
		k, servers int
		seed       int64
		sha256     string
	}{
		{"fattree", 8, 4, 1, "81f03a355d630e87bc836946f4393018770c1cfb57815f1dc24a657c1879c369"},
		{"benson", 8, 4, 1, "c9a4a45483e3d068bd7ea6bc96c3ca725ce33031bc318054ba9a6dcc6430cc87"},
		{"hardware", 8, 4, 1, "91aad2fa3d32c9784a7c55dd51a878fee0d6f96a11818af079326f512e901360"},
		{"software", 8, 4, 1, "906bd6280e8dcc9d828323c49c03d2d7d14738251393e96f9b7889a215f9d2b9"},
		{"cloudlab", 8, 4, 1, "9365f6ee8f64958cf689cc80c8465cfe4c2ceae80aacd8537ead94e07d217301"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			records, err := generate(tc.kind, tc.k, tc.servers, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := deps.EncodeXML(&buf, records); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(buf.Bytes()); got != tc.sha256 {
				t.Errorf("generate(%q) hashes to %s, pinned %s", tc.kind, got, tc.sha256)
			}
			seed, err := os.ReadFile(filepath.Join("..", "..", "internal", "deps", "testdata", "depgen", tc.kind+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(seed); got != tc.sha256 {
				t.Errorf("fuzz seed %s.xml hashes to %s, pinned %s", tc.kind, got, tc.sha256)
			}
		})
	}
	if _, err := generate("", 8, 4, 1); err == nil {
		t.Error("missing -kind accepted")
	}
	if _, err := generate("mesh", 8, 4, 1); err == nil {
		t.Error("unknown -kind accepted")
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
