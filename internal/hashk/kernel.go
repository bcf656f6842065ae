package hashk

import (
	"crypto/sha256"
	"encoding/binary"
)

// maxBlocks is the most SHA-256 blocks a Msg spans: enough for the
// largest packed zkVM leaf, four 97-byte trace rows behind the prefix
// and a 16-byte salt (405 bytes).
const maxBlocks = 7

// MaxMsg is the longest message a Msg holds: maxBlocks SHA-256 blocks
// less the 0x80 terminator and the 8-byte length.
const MaxMsg = maxBlocks*64 - 9

// Msg is a fixed-length SHA-256 message of at most MaxMsg bytes, kept
// with its padding in place. The padding depends only on the length,
// so a message is padded once and then patched through Bytes for every
// hash of the same shape.
type Msg struct {
	buf    [maxBlocks * 64]byte
	n      int
	blocks int
}

// NewMsg returns a zero message of n bytes, padded. It panics if n is
// negative or above MaxMsg.
func NewMsg(n int) Msg {
	var m Msg
	m.pad(n)
	return m
}

// pad sets a zero message's length to n and writes its padding.
func (m *Msg) pad(n int) {
	if n < 0 || n > MaxMsg {
		panic("hashk: message length out of range")
	}
	m.n, m.blocks = n, (n+9+63)/64
	m.buf[n] = 0x80
	binary.BigEndian.PutUint64(m.buf[64*m.blocks-8:], uint64(n)*8)
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
