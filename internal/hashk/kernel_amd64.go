//go:build amd64 && !purego

package hashk

import "encoding/binary"

//go:generate go run gen_kernel.go -out kernel_amd64.s

// useSHANI reports whether the CPU has the instructions the kernel
// uses: SSSE3 (leaf 1, ECX bit 9), SSE4.1 (leaf 1, ECX bit 19) and SHA
// (leaf 7, EBX bit 29).
var useSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}()

// iv is the SHA-256 initial state.
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// block compresses nblocks 64-byte blocks at p into dig.
//
//go:noescape
func block(dig *[8]uint32, p *byte, nblocks int)

// block2 compresses nblocks blocks at pa into da and at pb into db,
// the two lanes in lockstep.
//
//go:noescape
func block2(da, db *[8]uint32, pa, pb *byte, nblocks int)

func sum1(m *Msg) [32]byte {
	if !useSHANI {
		return sumGeneric(m)
	}
	d := iv
	block(&d, &m.buf[0], m.blocks)
	return stateBytes(&d)
}

func sum2(a, b *Msg) ([32]byte, [32]byte) {
	if !useSHANI {
		return sum2Generic(a, b)
	}
	da, db := iv, iv
	block2(&da, &db, &a.buf[0], &b.buf[0], a.blocks)
	return stateBytes(&da), stateBytes(&db)
}

// stateBytes serialises a state as the big-endian SHA-256 output.
func stateBytes(d *[8]uint32) (out [32]byte) {
	binary.BigEndian.PutUint32(out[0:], d[0])
	binary.BigEndian.PutUint32(out[4:], d[1])
	binary.BigEndian.PutUint32(out[8:], d[2])
	binary.BigEndian.PutUint32(out[12:], d[3])
	binary.BigEndian.PutUint32(out[16:], d[4])
	binary.BigEndian.PutUint32(out[20:], d[5])
	binary.BigEndian.PutUint32(out[24:], d[6])
	binary.BigEndian.PutUint32(out[28:], d[7])
	return out
}
