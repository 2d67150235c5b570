package commutative

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	mathrand "math/rand"
	"testing"
)

func newKeys(t *testing.T, n int) []*Key {
	t.Helper()
	keys := make([]*Key, n)
	for i := range keys {
		k, err := NewKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

func mustEncrypt(t *testing.T, k *Key, p Point) Point {
	t.Helper()
	c, err := k.Encrypt(p[:])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCommutativity: two keys applied in either order agree on 1,000
// hashed elements, and three keys agree in all six orders.
func TestCommutativity(t *testing.T) {
	keys := newKeys(t, 3)
	a, b := keys[0], keys[1]
	for i := 0; i < 1000; i++ {
		data := []byte(fmt.Sprintf("pkg:component-%d", i))
		ab := mustEncrypt(t, b, a.EncryptElement(data))
		ba := mustEncrypt(t, a, b.EncryptElement(data))
		if ab != ba {
			t.Fatalf("element %d: encryption order changed the ciphertext", i)
		}
	}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for i := 0; i < 50; i++ {
		data := []byte(fmt.Sprintf("router:10.0.%d.1", i))
		var first Point
		for n, o := range orders {
			c := keys[o[0]].EncryptElement(data)
			c = mustEncrypt(t, keys[o[1]], c)
			c = mustEncrypt(t, keys[o[2]], c)
			if n == 0 {
				first = c
			} else if c != first {
				t.Fatalf("element %d: key order %v gives a different ciphertext than %v", i, o, orders[0])
			}
		}
	}
}

// TestDeterministicEquality is the PSI-critical property: same plaintext and
// key set give the same ciphertext; different plaintexts differ.
func TestDeterministicEquality(t *testing.T) {
	keys := newKeys(t, 2)
	x := mustEncrypt(t, keys[1], keys[0].EncryptElement([]byte("pkg:libssl=1.0.1")))
	y := mustEncrypt(t, keys[1], keys[0].EncryptElement([]byte("pkg:libssl=1.0.2")))
	if x == y {
		t.Error("different plaintexts collided")
	}
	if x2 := mustEncrypt(t, keys[1], keys[0].EncryptElement([]byte("pkg:libssl=1.0.1"))); x2 != x {
		t.Error("equal plaintexts encrypted differently under the same key set")
	}
}

// TestHashToPointDependsOnlyOnElement: under every key an element maps to
// the same point — its first candidate, which no key refuses — and distinct
// elements map to distinct points.
func TestHashToPointDependsOnlyOnElement(t *testing.T) {
	keys := newKeys(t, 3)
	seen := make(map[Point]string)
	for i := 0; i < 1000; i++ {
		data := []byte(fmt.Sprintf("c%d/private", i))
		p := candidate(data, 0)
		for _, k := range keys {
			if c := mustEncrypt(t, k, p); c != k.EncryptElement(data) {
				t.Fatalf("element %d: a key encrypts some other point than its first candidate", i)
			}
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("%q and %q share a point", prev, data)
		}
		seen[p] = string(data)
	}
}

// lowOrder lists the u-coordinates of Curve25519's small-order points (and
// the non-canonical encodings of 0 and 1), little-endian.
var lowOrder = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// TestEncryptRefusesDegenerateInput: a low-order point would match at every
// party; every key refuses each one.
func TestEncryptRefusesDegenerateInput(t *testing.T) {
	for _, k := range newKeys(t, 3) {
		for _, h := range lowOrder {
			in, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Encrypt(in); err == nil {
				t.Errorf("low-order point %s accepted", h)
			}
		}
	}
}

// TestSerialization: an element travels as exactly Size bytes — a
// ciphertext's bytes are what the next party's Encrypt takes — and input of
// any other width is refused, not padded or truncated.
func TestSerialization(t *testing.T) {
	keys := newKeys(t, 2)
	c := keys[0].EncryptElement([]byte("serialize me"))
	wire := append([]byte(nil), c[:]...)
	if _, err := keys[1].Encrypt(wire); err != nil {
		t.Fatalf("a ciphertext's own bytes are refused: %v", err)
	}
	for _, n := range []int{0, 1, Size - 1, Size + 1, 64} {
		in := make([]byte, n)
		copy(in, wire)
		if _, err := keys[1].Encrypt(in); err == nil {
			t.Errorf("%d-byte element accepted", n)
		}
	}
}

// TestNewKeyDeterministic: the key is a pure function of the bytes read, so
// a fixed reader reproduces it.
func TestNewKeyDeterministic(t *testing.T) {
	draw := func() *Key {
		k, err := NewKey(mathrand.New(mathrand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a, b := draw(), draw()
	if !bytes.Equal(a.k.Bytes(), b.k.Bytes()) {
		t.Fatal("a fixed reader yielded two different keys")
	}
	if a.EncryptElement([]byte("x")) != b.EncryptElement([]byte("x")) {
		t.Fatal("equal keys encrypt differently")
	}
}

func TestKeyGenRejectsBadReader(t *testing.T) {
	for _, n := range []int{0, Size - 1} {
		if _, err := NewKey(bytes.NewReader(make([]byte, n))); err == nil {
			t.Errorf("a %d-byte randomness source was accepted", n)
		}
	}
}
