package hashk

import (
	"crypto/sha256"
	"encoding/binary"
)

// MaxMsg is the longest message a Msg holds: two SHA-256 blocks less
// the 0x80 terminator and the 8-byte length.
const MaxMsg = 2*64 - 9

// Msg is a fixed-length SHA-256 message of at most MaxMsg bytes, kept
// with its padding in place. The padding depends only on the length,
// so a message is padded once and then patched through Bytes for every
// hash of the same shape.
type Msg struct {
	buf    [128]byte
	n      int
	blocks int
}

// NewMsg returns a zero message of n bytes, padded. It panics if n is
// negative or above MaxMsg.
func NewMsg(n int) Msg {
	if n < 0 || n > MaxMsg {
		panic("hashk: message length out of range")
	}
	m := Msg{n: n, blocks: 1}
	if n > 64-9 {
		m.blocks = 2
	}
	m.buf[n] = 0x80
	binary.BigEndian.PutUint64(m.buf[64*m.blocks-8:], uint64(n)*8)
	return m
}

// Bytes returns the message bytes for patching in place. Its capacity
// ends at the message, so writes cannot reach the padding.
func (m *Msg) Bytes() []byte { return m.buf[:m.n:m.n] }

// Sum is SHA-256 of m.
func Sum[H ~[32]byte](m *Msg) H { return H(sum1(m)) }

// Sum2 is SHA-256 of a and of b, computed together. The messages must
// have the same length.
func Sum2[H ~[32]byte](a, b *Msg) (H, H) {
	if a.n != b.n {
		panic("hashk: Sum2 messages differ in length")
	}
	x, y := sum2(a, b)
	return H(x), H(y)
}

// sumGeneric is the portable shape of Sum: the standard library over
// the unpadded message.
func sumGeneric(m *Msg) [32]byte { return sha256.Sum256(m.buf[:m.n]) }

// sum2Generic is the portable shape of Sum2.
func sum2Generic(a, b *Msg) ([32]byte, [32]byte) { return sumGeneric(a), sumGeneric(b) }
