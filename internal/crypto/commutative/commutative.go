// Package commutative implements the deterministic commutative cipher
// P-SOP's ring protocol relies on (§4.2.2): X25519 scalar multiplication on
// Curve25519, from crypto/ecdh.
//
// A key is a scalar k and encryption is E_k(P) = [k]P on u-coordinates.
// Because [a]([b]P) = [b]([a]P), encryptions under different keys commute:
// once every party has encrypted an element, its ciphertext no longer
// depends on the order the keys were applied in. The paper's prototype uses
// Pohlig–Hellman exponentiation modulo a prime ("commutative RSA" [56],
// §6.1.2); P-SOP needs only a deterministic commutative permutation of a
// group where DDH is hard, which X25519 gives at about 128-bit security with
// 32-byte ciphertexts.
//
// The cipher is deterministic, not semantically secure, which is exactly
// what private set intersection needs: equal plaintexts encrypt to equal
// ciphertexts under the same key set, so ciphertext multisets can be
// compared without revealing plaintexts.
package commutative

import (
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Size is the byte width of a point, and so of every ciphertext.
const Size = 32

// Point is a Curve25519 u-coordinate: an element's hashed point, or its
// encryption under one or more keys.
type Point [Size]byte

// domain separates P-SOP's element hash from every other use of SHA-256.
const domain = "indaas p-sop x25519 element\x00"

// candidate is the ctr-th point data may map to: SHA-256(domain ‖ ctr ‖
// data) with bit 255 cleared. Curve25519 is twist-secure, so every such
// u-coordinate is usable except the few low-order ones, which ECDH refuses.
func candidate(data []byte, ctr uint32) Point {
	h := sha256.New()
	h.Write([]byte(domain))
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], ctr)
	h.Write(c[:])
	h.Write(data)
	var p Point
	h.Sum(p[:0])
	p[Size-1] &= 0x7f
	return p
}

// Key is one party's secret scalar.
type Key struct {
	k *ecdh.PrivateKey
}

// NewKey reads a key's 32 bytes from rng. The key is a pure function of
// those bytes, so a fixed reader yields a fixed key.
func NewKey(rng io.Reader) (*Key, error) {
	var b [Size]byte
	if _, err := io.ReadFull(rng, b[:]); err != nil {
		return nil, fmt.Errorf("commutative: drawing key: %w", err)
	}
	k, err := ecdh.X25519().NewPrivateKey(b[:])
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	return &Key{k: k}, nil
}

// Encrypt computes [k]P for the point encoded in in. It refuses input that
// is not exactly Size bytes, and a low-order point — one every key maps to
// the same value, so it would match at every party.
func (k *Key) Encrypt(in []byte) (Point, error) {
	var out Point
	if len(in) != Size {
		return out, fmt.Errorf("commutative: element of %d bytes, want %d", len(in), Size)
	}
	pub, err := ecdh.X25519().NewPublicKey(in)
	if err != nil {
		return out, fmt.Errorf("commutative: %w", err)
	}
	shared, err := k.k.ECDH(pub)
	if err != nil {
		return out, fmt.Errorf("commutative: %w", err)
	}
	copy(out[:], shared)
	return out, nil
}

// EncryptElement maps data to its point and encrypts it under k. The point
// is data's first candidate ECDH does not refuse. Refusal depends only on
// the point (every key refuses the low-order points), so every party
// derives the same point.
func (k *Key) EncryptElement(data []byte) Point {
	for ctr := uint32(0); ; ctr++ {
		p := candidate(data, ctr)
		if c, err := k.Encrypt(p[:]); err == nil {
			return c
		}
	}
}
