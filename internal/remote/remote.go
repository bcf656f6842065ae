// Package remote implements off-path proof generation (paper §2.2 and
// §7: routers and collectors are resource-constrained, so "proof
// generation [is] performed on an off-path compute environment,
// decoupled from the data collection process"). The prover farm is
// the one off-path protocol: workers dial a Coordinator over TCP and
// prove whole guest runs or single continuation segments, and the
// Coordinator plugs into core.Options.Farm.
//
// Trust model: a worker is the operator's own compute node — it sees
// private inputs (like the paper's off-path prover) but cannot forge
// results, because the coordinator re-checks every returned receipt's
// seal and the eventual verifiers check it again.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zkflow/internal/zkvm"
)

// reqMagic tags the proving-request frame. Frames under the retired
// "zkrw"/"zkw2" magics had a different layout and are rejected.
const reqMagic = 0x7a6b7733 // "zkw3"

// maxRequest bounds a request body (program + inputs).
const maxRequest = 512 << 20

// EncodeRequest frames a proving request:
//
//	magic u32 | checks u32 | segmentCycles u32 | progLen u32 | program |
//	nInput u32 | input words
//
// All integers little-endian.
func EncodeRequest(prog *zkvm.Program, input []uint32, opts zkvm.ProveOptions) []byte {
	progBytes := prog.Encode()
	out := make([]byte, 0, 20+len(progBytes)+4*len(input))
	out = binary.LittleEndian.AppendUint32(out, reqMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.Checks))
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.SegmentCycles))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(progBytes)))
	out = append(out, progBytes...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(input)))
	for _, w := range input {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// ErrBadRequest reports an unparseable proving request.
var ErrBadRequest = errors.New("remote: malformed proving request")

// DecodeRequest inverts EncodeRequest.
func DecodeRequest(data []byte) (*zkvm.Program, []uint32, zkvm.ProveOptions, error) {
	var opts zkvm.ProveOptions
	if len(data) < 20 || binary.LittleEndian.Uint32(data) != reqMagic {
		return nil, nil, opts, ErrBadRequest
	}
	opts.Checks = int(binary.LittleEndian.Uint32(data[4:]))
	opts.SegmentCycles = int(binary.LittleEndian.Uint32(data[8:]))
	progLen := binary.LittleEndian.Uint32(data[12:])
	off := 16
	// Length checks are done in int (64-bit): comparing in uint32 lets
	// a huge count wrap (4*nIn overflows) and walk past the buffer.
	if len(data)-off < int(progLen) {
		return nil, nil, opts, ErrBadRequest
	}
	prog, err := zkvm.DecodeProgram(data[off : off+int(progLen)])
	if err != nil {
		return nil, nil, opts, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	off += int(progLen)
	if len(data)-off < 4 {
		return nil, nil, opts, ErrBadRequest
	}
	nIn := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if len(data)-off != 4*int(nIn) {
		return nil, nil, opts, ErrBadRequest
	}
	input := make([]uint32, nIn)
	for i := range input {
		input[i] = binary.LittleEndian.Uint32(data[off+4*i:])
	}
	return prog, input, opts, nil
}

// ErrRemote wraps worker-side failures.
var ErrRemote = errors.New("remote: proving failed")
