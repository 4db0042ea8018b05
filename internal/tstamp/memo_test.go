package tstamp

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"securearchive/internal/commit"
	"securearchive/internal/group"
	"securearchive/internal/sig"
)

// Verify-once tests: VerifyDigest skips the Pedersen modexps only while
// the chain's (Links[0].Ref, Opening.M, Opening.R) triple still hashes to
// the fingerprint recorded at seal. These pin that any change to the
// triple — in place or by replacement — falls back to the full check, and
// that the memoized verdict always equals the direct one.

func newCommitChain(t testing.TB, grp *group.Group) *Chain {
	t.Helper()
	c, err := New(doc, RefCommitment, sig.Ed25519, 0, grp, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// digestFor builds a digest whose committed scalar (its first 28 bytes)
// is m, so a test can get past the digest-vs-M comparison and reach the
// Pedersen check itself.
func digestFor(m *big.Int) [sha256.Size]byte {
	var d [sha256.Size]byte
	m.FillBytes(d[:28])
	return d
}

// directVerdict is what VerifyDigest decided before the memo existed:
// the digest must match Opening.M and the opening must verify against
// the commitment in Links[0].Ref, with no shortcut.
func directVerdict(c *Chain, grp *group.Group, digest [sha256.Size]byte) bool {
	op := c.Opening
	if op == nil || op.M == nil {
		return false
	}
	if new(big.Int).SetBytes(digest[:28]).Cmp(op.M) != 0 {
		return false
	}
	pc := commit.PedersenCommitmentFromBytes(c.Links[0].Ref)
	return commit.NewPedersen(grp).Verify(pc, *op) == nil
}

func TestVerifyOnceDetectsTamper(t *testing.T) {
	grp := group.Test()
	c := newCommitChain(t, grp)
	sealedDigest := sha256.Sum256(doc)
	mustPass := func(step string, d [sha256.Size]byte) {
		t.Helper()
		if err := c.VerifyDigest(d); err != nil {
			t.Fatalf("%s: VerifyDigest = %v; want nil", step, err)
		}
	}
	mustFail := func(step string, d [sha256.Size]byte) {
		t.Helper()
		if err := c.VerifyDigest(d); !errors.Is(err, ErrOpeningFailed) {
			t.Fatalf("%s: VerifyDigest = %v; want ErrOpeningFailed", step, err)
		}
	}
	mustPass("sealed", sealedDigest)

	t.Run("ref", func(t *testing.T) {
		ref := c.Links[0].Ref
		ref[len(ref)/2] ^= 0x10 // bit flip in place
		mustFail("ref flipped in place", sealedDigest)
		ref[len(ref)/2] ^= 0x10
		mustPass("ref restored in place", sealedDigest)

		forged := append([]byte(nil), ref...)
		forged[0] ^= 0x01
		c.Links[0].Ref = forged // replacement
		mustFail("ref replaced", sealedDigest)
		c.Links[0].Ref = append([]byte(nil), ref...) // equal value, new slice
		mustPass("ref replaced by an equal copy", sealedDigest)
		c.Links[0].Ref = ref
		mustPass("ref restored", sealedDigest)
	})

	t.Run("M", func(t *testing.T) {
		m := c.Opening.M
		orig := new(big.Int).Set(m)
		m.SetInt64(5) // in place
		mustFail("M set in place, sealed digest", sealedDigest)
		// A digest matching the new M passes the comparison, so only the
		// Pedersen check can reject it.
		mustFail("M set in place, matching digest", digestFor(m))
		m.Set(orig)
		mustPass("M restored in place", sealedDigest)

		bumped := new(big.Int).Add(orig, big.NewInt(1))
		c.Opening.M = bumped // replacement
		mustFail("M replaced, matching digest", digestFor(bumped))
		c.Opening.M = m
		mustPass("M restored", sealedDigest)
	})

	t.Run("R", func(t *testing.T) {
		r := c.Opening.R
		orig := new(big.Int).Set(r)
		r.SetInt64(7) // in place
		mustFail("R set in place", sealedDigest)
		r.Set(orig)
		mustPass("R restored in place", sealedDigest)

		c.Opening.R = new(big.Int).Add(orig, big.NewInt(1)) // replacement
		mustFail("R replaced", sealedDigest)
		c.Opening.R = r
		mustPass("R restored", sealedDigest)

		op := c.Opening
		c.Opening = &commit.PedersenOpening{M: op.M, R: new(big.Int).Neg(orig)} // whole opening replaced
		mustFail("opening replaced with negated R", sealedDigest)
		c.Opening = op
		mustPass("opening restored", sealedDigest)
	})
}

// TestVerifyOnceMatchesDirectVerify is the verdict-equivalence property:
// over random mutations of the triple (and of the digest a read
// presents), the memoized VerifyDigest accepts exactly when the direct
// Pedersen check plus digest comparison does — including mutations that
// change the triple's bytes but not its meaning (R+q), which the memo
// must send through the full check rather than reject.
func TestVerifyOnceMatchesDirectVerify(t *testing.T) {
	t.Run("test-group", func(t *testing.T) { verdictProperty(t, group.Test(), 400, 1) })
	t.Run("default-group", func(t *testing.T) {
		if testing.Short() {
			t.Skip("2048-bit modexps; skipped in -short")
		}
		verdictProperty(t, group.Default(), 12, 2)
	})
}

func verdictProperty(t *testing.T, grp *group.Group, trials int, seed int64) {
	rng := mrand.New(mrand.NewSource(seed))
	other := newCommitChain(t, grp)
	accepted, rejected := 0, 0
	for i := 0; i < trials; i++ {
		c := newCommitChain(t, grp)
		digest := sha256.Sum256(doc)
		op := c.Opening
		m, r := new(big.Int).Set(op.M), new(big.Int).Set(op.R)
		kind := rng.Intn(10)
		switch kind {
		case 0: // untouched
		case 1:
			c.Links[0].Ref[rng.Intn(len(c.Links[0].Ref))] ^= byte(1 << rng.Intn(8))
		case 2:
			c.Links[0].Ref = append([]byte(nil), other.Links[0].Ref...)
		case 3:
			op.M.Add(op.M, big.NewInt(int64(1+rng.Intn(1000))))
			digest = digestFor(op.M)
		case 4:
			op.R.Add(op.R, big.NewInt(int64(1+rng.Intn(1000))))
		case 5:
			op.R.Add(op.R, grp.Q) // same residue: still a valid opening
		case 6:
			c.Opening = &commit.PedersenOpening{M: m, R: new(big.Int).Add(r, grp.Q)}
		case 7:
			c.Opening = &commit.PedersenOpening{M: m, R: nil}
		case 8:
			c.Opening = other.Opening // a valid opening of another commitment
			digest = digestFor(other.Opening.M)
		case 9:
			digest[rng.Intn(28)] ^= byte(1 << rng.Intn(8)) // wrong data
		}
		want := directVerdict(c, grp, digest)
		err := c.VerifyDigest(digest)
		if got := err == nil; got != want {
			t.Fatalf("trial %d (mutation %d): memoized verdict %v (err %v), direct verdict %v", i, kind, got, err, want)
		}
		if err != nil && !errors.Is(err, ErrOpeningFailed) {
			t.Fatalf("trial %d (mutation %d): err = %v; want ErrOpeningFailed", i, kind, err)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("property never exercised both verdicts: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestVerifyDigestConcurrentReaders: the memo is written once at seal
// and only read afterwards, so concurrent reads of one chain share no
// mutable state (run under -race).
func TestVerifyDigestConcurrentReaders(t *testing.T) {
	c := newCommitChain(t, group.Test())
	digest := sha256.Sum256(doc)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.VerifyDigest(digest); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUnmarshaledChainHoldsNoOpening pins what Marshal's doc says: the
// public chain round-trips and verifies, but it carries no opening, so
// commitment-mode data checks fail until the owner's opening is
// supplied by other means.
func TestUnmarshaledChainHoldsNoOpening(t *testing.T) {
	c := newCommitChain(t, group.Test())
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(10, nil); err != nil {
		t.Fatalf("unmarshaled chain does not verify: %v", err)
	}
	err = rt.VerifyData(doc)
	if !errors.Is(err, ErrOpeningFailed) || !strings.Contains(err.Error(), "opening not held") {
		t.Fatalf("VerifyData on unmarshaled commitment chain = %v; want opening not held", err)
	}
	// Handing it the owner's opening does not make it a sealed chain:
	// it was never committed in this process, so it has no group either.
	rt.Opening = c.Opening
	if err := rt.VerifyData(doc); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("VerifyData with a grafted opening = %v; want ErrOpeningFailed", err)
	}
}

// Integrity-rung benchmarks at the production group: the seal (two
// modexps plus an Ed25519 signature) and a read's check, memoized
// ("sealed") and full ("fallback": an R+q opening that is valid but not
// the sealed triple, so it pays the Pedersen check).

func BenchmarkNewFromDigestDefault(b *testing.B) {
	grp := group.Default()
	digest := sha256.Sum256(doc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewFromDigest(digest, RefCommitment, sig.Ed25519, 0, grp, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDigestDefault(b *testing.B) {
	grp := group.Default()
	digest := sha256.Sum256(doc)
	b.Run("sealed", func(b *testing.B) {
		c := newCommitChain(b, grp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.VerifyDigest(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		c := newCommitChain(b, grp)
		c.Opening.R.Add(c.Opening.R, grp.Q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.VerifyDigest(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
}
