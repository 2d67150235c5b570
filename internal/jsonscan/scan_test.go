package jsonscan

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestStringsChunkCap checks the bound a long-lived list relies on: with
// ChunkCap set, lists are carved from chunks of at most the cap, and a list
// longer than the cap shares its array with no later list; every list still
// decodes to its elements, capacity-capped.
func TestStringsChunkCap(t *testing.T) {
	var lists [][]string
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < 40; i++ {
		n := 1 + i%4
		if i == 20 {
			n = 19 // longer than the cap
		}
		var list []string
		for j := 0; j < n; j++ {
			list = append(list, fmt.Sprintf("l%d_%d", i, j))
		}
		lists = append(lists, list)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`["` + strings.Join(list, `","`) + `"]`)
	}
	b.WriteByte(']')

	s := Scanner{Data: []byte(b.String()), ChunkCap: 8}
	var got [][]string
	err := Elements(&s, &got, nil, func(dst *[]string) error {
		if err := s.Strings(dst, true); err != nil {
			return err
		}
		if cap(s.chunk) > 8 {
			t.Errorf("after a %d-string list the next is carved from a chunk of %d, want at most 8", len(*dst), cap(s.chunk))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, list := range got {
		if !slices.Equal(list, lists[i]) || cap(list) != len(list) {
			t.Fatalf("list %d decoded to %q (cap %d), want %q", i, list, cap(list), lists[i])
		}
	}
}

// TestUnknownFieldNamesTheKey checks that the error names the key as
// unquoted, the way encoding/json's DisallowUnknownFields does.
func TestUnknownFieldNamesTheKey(t *testing.T) {
	s := Scanner{Data: []byte(`{"kind":1,"model":2}`)}
	for first := true; ; first = false {
		k, done, err := s.Member(first, []string{"kind"})
		if err != nil || done {
			t.Fatalf("no unknown key met: %v", err)
		}
		if k < 0 {
			if got, want := s.UnknownField().Error(), `json: unknown field "model"`; got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
			return
		}
		if err := s.Skip(1); err != nil {
			t.Fatal(err)
		}
	}
}
