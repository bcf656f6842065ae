package zkvm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate golden receipt vectors")

const goldenReceiptFile = "receipt_v2.bin"

// retiredReceiptFile is the golden vector of the unpacked v1 seal (one
// trace row per leaf, SHA-256 salts). It is kept to show that the
// format change is a clean break: v1 bytes still decode, but never
// verify.
const retiredReceiptFile = "receipt_v1.bin"

// goldenReceipt proves the sum program over a fixed input with a
// fixed transcript seed, so the receipt bytes are fully deterministic
// across runs and machines.
func goldenReceipt(t *testing.T) []byte {
	t.Helper()
	ex, err := Execute(sumProgram(), sumInput(16), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &[32]byte{0x5a, 0x6b, 0x76, 0x31} // "Zkv1"
	r, err := proveExecutionSeeded(ex, ProveOptions{Checks: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenReceipt pins the receipt wire format: any change to the
// trace layout, transcript schedule, Merkle arity, or seal encoding
// shows up as a byte diff against testdata/receipt_v2.bin. Regenerate
// deliberately with `go test ./internal/zkvm -run TestGoldenReceipt
// -update` and review the diff as a format change.
func TestGoldenReceipt(t *testing.T) {
	path := filepath.Join("testdata", goldenReceiptFile)
	got := goldenReceipt(t)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d-byte golden receipt to %s", len(got), path)
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden vector (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("receipt bytes diverged from golden vector: %d bytes generated, %d golden; "+
			"if the format change is intentional, regenerate with -update", len(got), len(want))
	}

	// The stored vector must also stand on its own: decode it and
	// verify it against the program, so the golden file is a valid
	// receipt and not just stable bytes.
	r, err := UnmarshalReceipt(want)
	if err != nil {
		t.Fatalf("golden vector does not decode: %v", err)
	}
	if err := Verify(sumProgram(), r, VerifyOptions{}); err != nil {
		t.Fatalf("golden vector does not verify: %v", err)
	}
	reenc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, want) {
		t.Fatal("golden vector is not canonical: decode+re-encode changed bytes")
	}
}

// TestRetiredReceiptRejected checks that a v1 receipt (same program,
// same seed, same encoding, unpacked leaves) does not verify under the
// v2 seal: its transcript label, openings and leaf layout all differ.
func TestRetiredReceiptRejected(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", retiredReceiptFile))
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalReceipt(old)
	if err != nil {
		t.Fatalf("v1 vector no longer decodes: %v", err)
	}
	if err := Verify(sumProgram(), r, VerifyOptions{}); err == nil {
		t.Fatal("v1 receipt verified under the v2 seal")
	}
}
