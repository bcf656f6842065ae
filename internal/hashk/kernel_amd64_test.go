//go:build amd64 && !purego

package hashk

import (
	"math/rand"
	"testing"
)

// TestCPUWithoutSHANIMatches runs the kernel's entry points down the
// path a CPU without SHA-NI takes and checks they agree with the
// assembly.
func TestCPUWithoutSHANIMatches(t *testing.T) {
	if !useSHANI {
		t.Skip("this CPU has no SHA-NI: every test already runs the fallback")
	}
	rng := rand.New(rand.NewSource(2))
	type sums struct{ one, a, b digest }
	run := func() []sums {
		rng.Seed(2)
		var out []sums
		for n := 0; n <= MaxMsg; n++ {
			a, b := randMsg(rng, n), randMsg(rng, n)
			x, y := Sum2[digest](&a, &b)
			out = append(out, sums{Sum[digest](&a), x, y})
		}
		return out
	}
	asm := run()
	useSHANI = false
	defer func() { useSHANI = true }()
	generic := run()
	for n := range asm {
		if asm[n] != generic[n] {
			t.Fatalf("len %d: assembly and fallback digests differ", n)
		}
	}
}
