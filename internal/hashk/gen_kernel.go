// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-GO file.

//go:build ignore

// gen_kernel writes kernel_amd64.s, the SHA-NI compression kernel of
// package hashk. Run it through `go generate ./internal/hashk`.
//
// The round list below is the SHA-NI routine of the Go standard
// library (crypto/internal/fips140/sha256, blockSHANI), rewritten over
// symbolic registers and with legacy SSE encodings only (MOVOU/MOVO,
// no VEX), so the kernel needs SSSE3, SSE4.1 and SHA and nothing else.
// block is the list emitted once. block2 is the same list emitted for
// two independent messages in lockstep, group by group: the SHA
// instructions are legacy-encoded, so only X0–X15 exist, and
// SHA256RNDS2 implicitly reads X0. The lanes therefore share X0, each
// lane owns seven other registers, and the per-block saved state of
// both lanes spills to the frame.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// lane maps the symbolic registers of the round list to machine
// registers. ABEF/CDGH hold the state, M0..M3 the message schedule, T
// is scratch, MASK the byte-swap shuffle; DIG and P are the digest and
// data pointers.
type lane struct {
	regs map[string]string
	// slot is the frame slot of the state saved for the feed-forward
	// add, or -1 to keep it in X9/X10.
	slot int
}

// newLane maps ABEF, CDGH, M0..M3 and T to the seven registers from
// X<first> on.
func newLane(first int, dig, p, mask string, slot int) lane {
	regs := map[string]string{"DIG": dig, "P": p, "MASK": mask}
	for i, s := range []string{"ABEF", "CDGH", "M0", "M1", "M2", "M3", "T"} {
		regs[s] = fmt.Sprintf("X%d", first+i)
	}
	return lane{regs: regs, slot: slot}
}

// K is the SHA-256 round-constant table.
var K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// prologue loads the digest and shuffles it into the ABEF/CDGH layout
// SHA256RNDS2 works on.
var prologue = []string{
	"MOVOU (DIG), ABEF",
	"MOVOU 16(DIG), CDGH",
	"PSHUFD $0xb1, ABEF, ABEF",
	"PSHUFD $0x1b, CDGH, CDGH",
	"MOVO ABEF, T",
	"PALIGNR $0x08, CDGH, ABEF",
	"PBLENDW $0xf0, T, CDGH",
}

// epilogue shuffles the state back and stores the digest.
var epilogue = []string{
	"PSHUFD $0x1b, ABEF, ABEF",
	"PSHUFD $0xb1, CDGH, CDGH",
	"MOVO ABEF, T",
	"PBLENDW $0xf0, CDGH, ABEF",
	"PALIGNR $0x08, T, CDGH",
	"MOVOU ABEF, (DIG)",
	"MOVOU CDGH, 16(DIG)",
}

// rounds returns the 64 rounds of one block as 16 groups of four.
// Group g adds K[4g..4g+3] to message words W[4g..4g+3] in X0 and runs
// two SHA256RNDS2 over them. Groups 0–3 load and byte-swap the block
// (MASK holds the byte-swap shuffle); groups 1–12 start the schedule
// of a later group with SHA256MSG1 and groups 3–14 finish it with
// SHA256MSG2.
func rounds() [][]string {
	m := func(i int) string { return fmt.Sprintf("M%d", i&3) }
	var groups [][]string
	for g := 0; g < 16; g++ {
		cur, prev, next := m(g), m(g+3), m(g+1)
		var ins []string
		if g < 4 {
			ins = append(ins,
				fmt.Sprintf("MOVOU %d(P), X0", 16*g),
				"PSHUFB MASK, X0",
				"MOVO X0, "+cur)
		} else {
			ins = append(ins, "MOVO "+cur+", X0")
		}
		ins = append(ins,
			fmt.Sprintf("PADDD K<>+%d(SB), X0", 16*g),
			"SHA256RNDS2 X0, ABEF, CDGH")
		if g >= 3 && g <= 14 {
			ins = append(ins,
				"MOVO "+cur+", T",
				"PALIGNR $0x04, "+prev+", T",
				"PADDD T, "+next,
				"SHA256MSG2 "+cur+", "+next)
		}
		ins = append(ins,
			"PSHUFD $0x0e, X0, X0",
			"SHA256RNDS2 X0, CDGH, ABEF")
		if g >= 1 && g <= 12 {
			ins = append(ins, "SHA256MSG1 "+cur+", "+prev)
		}
		groups = append(groups, ins)
	}
	return groups
}

// save keeps the block's input state for the feed-forward add.
func (l lane) save() []string {
	if l.slot >= 0 {
		return []string{
			fmt.Sprintf("MOVOU ABEF, %d(SP)", 32*l.slot),
			fmt.Sprintf("MOVOU CDGH, %d(SP)", 32*l.slot+16),
		}
	}
	return []string{"MOVO ABEF, X9", "MOVO CDGH, X10"}
}

// feedForward adds the saved input state back into the state.
func (l lane) feedForward() []string {
	if l.slot >= 0 {
		return []string{
			fmt.Sprintf("MOVOU %d(SP), X0", 32*l.slot),
			"PADDD X0, ABEF",
			fmt.Sprintf("MOVOU %d(SP), X0", 32*l.slot+16),
			"PADDD X0, CDGH",
		}
	}
	return []string{"PADDD X9, ABEF", "PADDD X10, CDGH"}
}

// emit writes instructions with l's registers substituted.
func (l lane) emit(w *bytes.Buffer, ins []string) {
	for _, in := range ins {
		op, args, _ := strings.Cut(in, " ")
		var out []string
		for _, a := range strings.Split(args, ", ") {
			out = append(out, l.subst(a))
		}
		fmt.Fprintf(w, "\t%-11s %s\n", op, strings.Join(out, ", "))
	}
}

// subst rewrites one operand: a bare symbolic register, or a memory
// operand whose base is one, as in 16(DIG).
func (l lane) subst(arg string) string {
	if r, ok := l.regs[arg]; ok {
		return r
	}
	for name, r := range l.regs {
		if base, ok := strings.CutSuffix(arg, "("+name+")"); ok {
			return base + "(" + r + ")"
		}
	}
	return arg
}

func header(w *bytes.Buffer) {
	w.WriteString(`// Code generated by gen_kernel.go. DO NOT EDIT.

// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-GO file.

//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

`)
	w.WriteString("DATA flipMask<>+0(SB)/8, $0x0405060700010203\n")
	w.WriteString("DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b\n")
	w.WriteString("GLOBL flipMask<>(SB), RODATA|NOPTR, $16\n\n")
	for i, k := range K {
		fmt.Fprintf(w, "DATA K<>+%d(SB)/4, $0x%08x\n", 4*i, k)
	}
	w.WriteString("GLOBL K<>(SB), RODATA|NOPTR, $256\n\n")
}

// block1 emits block: one message, state and saves in registers.
func block1(w *bytes.Buffer) {
	l := newLane(1, "DI", "SI", "X8", -1)
	w.WriteString(`// func block(dig *[8]uint32, p *byte, nblocks int)
TEXT ·block(SB), NOSPLIT, $0-24
	MOVQ dig+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ nblocks+16(FP), DX
	TESTQ DX, DX
	JLE done
	MOVOU flipMask<>(SB), X8
`)
	l.emit(w, prologue)
	w.WriteString("\nloop:\n")
	l.emit(w, l.save())
	for _, g := range rounds() {
		l.emit(w, g)
	}
	l.emit(w, l.feedForward())
	w.WriteString("\tADDQ $0x40, SI\n\tDECQ DX\n\tJNZ loop\n\n")
	l.emit(w, epilogue)
	w.WriteString("\ndone:\n\tRET\n\n")
}

// block2emit emits block2: two equal-length messages in lockstep, one
// round group of lane A then the same group of lane B.
func block2emit(w *bytes.Buffer) {
	a := newLane(1, "DI", "SI", "X15", 0)
	b := newLane(8, "R9", "R8", "X15", 1)
	pair := func(ia, ib []string) {
		a.emit(w, ia)
		b.emit(w, ib)
	}
	w.WriteString(`// func block2(da, db *[8]uint32, pa, pb *byte, nblocks int)
TEXT ·block2(SB), NOSPLIT, $64-40
	MOVQ da+0(FP), DI
	MOVQ db+8(FP), R9
	MOVQ pa+16(FP), SI
	MOVQ pb+24(FP), R8
	MOVQ nblocks+32(FP), DX
	TESTQ DX, DX
	JLE done
	MOVOU flipMask<>(SB), X15
`)
	pair(prologue, prologue)
	w.WriteString("\nloop:\n")
	pair(a.save(), b.save())
	for _, g := range rounds() {
		pair(g, g)
	}
	pair(a.feedForward(), b.feedForward())
	w.WriteString("\tADDQ $0x40, SI\n\tADDQ $0x40, R8\n\tDECQ DX\n\tJNZ loop\n\n")
	pair(epilogue, epilogue)
	w.WriteString("\ndone:\n\tRET\n")
}

func main() {
	out := flag.String("out", "kernel_amd64.s", "output file")
	flag.Parse()
	var w bytes.Buffer
	header(&w)
	block1(&w)
	block2emit(&w)
	if err := os.WriteFile(*out, w.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
