//go:build !amd64 || purego

package hashk

func sum1(m *Msg) [32]byte { return sumGeneric(m) }

func sum2(a, b *Msg) ([32]byte, [32]byte) { return sum2Generic(a, b) }
