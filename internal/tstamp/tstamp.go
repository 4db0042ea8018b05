// Package tstamp implements Haber–Stornetta timestamp chains with
// signature-scheme rotation, and the LINCOS variant that replaces hashes
// with information-theoretically hiding Pedersen commitments (§3.3).
//
// A chain protects one archival object. Link k binds (a) the object
// reference — either its SHA-256 digest or a Pedersen commitment to it —
// (b) the full serialisation of link k−1, and (c) the epoch, under a
// digital signature. When a signature scheme approaches its end of life,
// the archive appends a fresh link signed with a newer scheme; the new
// signature covers the old one, so the old link's integrity is preserved
// *provided the renewal happened before the old scheme broke*. Verify
// checks exactly that condition against a sig.BreakSchedule: the chain is
// the paper's "more nuanced computationally bounded adversary" made
// machine-checkable (experiment E7).
//
// The hash-reference mode leaks a digest of the archived data — a
// confidentiality hole under Harvest-Now-Decrypt-Later if the data is
// guessable. Commitment mode (LINCOS) publishes only a Pedersen
// commitment, which reveals nothing information-theoretically; the
// opening stays with the data owner.
package tstamp

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/commit"
	"securearchive/internal/group"
	"securearchive/internal/sig"
)

// Errors returned by this package.
var (
	ErrEmptyChain    = errors.New("tstamp: empty chain")
	ErrBrokenLink    = errors.New("tstamp: link signature invalid")
	ErrChainGap      = errors.New("tstamp: link does not cover its predecessor")
	ErrLateRenewal   = errors.New("tstamp: scheme broke before the next renewal")
	ErrEpochOrder    = errors.New("tstamp: non-monotonic epochs")
	ErrOpeningFailed = errors.New("tstamp: commitment opening does not match data")
)

// RefMode selects how a link references the protected object.
type RefMode int

// Reference modes.
const (
	// RefHash binds the SHA-256 digest of the object (classic
	// Haber–Stornetta). Computationally hiding only.
	RefHash RefMode = iota
	// RefCommitment binds a Pedersen commitment (LINCOS).
	// Information-theoretically hiding.
	RefCommitment
)

// Link is one element of a timestamp chain.
type Link struct {
	Epoch    int
	Mode     RefMode
	Ref      []byte // digest or serialised commitment
	PrevHash [sha256.Size]byte
	Scheme   sig.Scheme
	Public   []byte
	Sig      []byte
}

// digestInput serialises the signed surface of a link.
func (l *Link) digestInput() []byte {
	buf := make([]byte, 0, 64+len(l.Ref)+len(l.Public))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(l.Epoch))
	buf = append(buf, e[:]...)
	buf = append(buf, byte(l.Mode))
	var lr [4]byte
	binary.BigEndian.PutUint32(lr[:], uint32(len(l.Ref)))
	buf = append(buf, lr[:]...)
	buf = append(buf, l.Ref...)
	buf = append(buf, l.PrevHash[:]...)
	buf = append(buf, []byte(l.Scheme)...)
	buf = append(buf, l.Public...)
	return buf
}

// hash hashes the full link including its signature, for chaining.
func (l *Link) hash() [sha256.Size]byte {
	h := sha256.New()
	h.Write(l.digestInput())
	h.Write(l.Sig)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Chain is a timestamp chain for one object.
type Chain struct {
	Mode  RefMode
	Links []*Link
	// Opening is retained by the data owner in commitment mode; it is NOT
	// part of the public chain.
	Opening *commit.PedersenOpening
	// grp is the Pedersen group the opening was committed in; nil for
	// chains that hold no opening (hash mode, Unmarshal).
	grp *group.Group
	// sealed fingerprints the (Links[0].Ref, Opening.M, Opening.R) triple
	// NewFromDigest committed — the verify-once memo. The commitment was
	// computed from exactly that opening, so the Pedersen check holds by
	// construction for as long as the current triple still hashes to it;
	// VerifyDigest then skips the two modexps. Written once, before the
	// chain is returned, and never on the read path. The zero value
	// means "never sealed in this process" and always takes the full
	// check.
	sealed [sha256.Size]byte
}

// New starts a chain over data at the given epoch, signed with scheme s.
// In RefCommitment mode, grp supplies the Pedersen group (nil selects
// group.Default()); data is committed via its SHA-256 digest embedded as
// a scalar, so arbitrarily large objects are supported while the
// commitment itself stays hiding.
func New(data []byte, mode RefMode, scheme sig.Scheme, epoch int, grp *group.Group, rnd io.Reader) (*Chain, error) {
	return NewFromDigest(sha256.Sum256(data), mode, scheme, epoch, grp, rnd)
}

// NewFromDigest starts a chain over data known only by its SHA-256
// digest — the streaming-ingest entry point: both reference modes bind
// the object through its digest anyway (RefHash directly, RefCommitment
// as the committed scalar), so a writer that hashed the object
// incrementally while dispersing it never needs the whole plaintext in
// memory to open its chain.
func NewFromDigest(digest [sha256.Size]byte, mode RefMode, scheme sig.Scheme, epoch int, grp *group.Group, rnd io.Reader) (*Chain, error) {
	c := &Chain{Mode: mode}
	var ref []byte
	switch mode {
	case RefHash:
		ref = digest[:]
	case RefCommitment:
		if grp == nil {
			grp = group.Default()
		}
		m := new(big.Int).SetBytes(digest[:28]) // fits any sane group's scalar capacity
		r, err := grp.RandScalar(rnd)
		if err != nil {
			return nil, err
		}
		// The opening lives as long as the object: hold its scalars in
		// exactly-sized words rather than math/big's padded allocations.
		c.grp = grp
		c.Opening = &commit.PedersenOpening{M: exactScalar(m), R: exactScalar(r)}
		ref = commit.NewPedersen(grp).CommitWith(c.Opening.M, c.Opening.R).Bytes()
	default:
		return nil, fmt.Errorf("tstamp: unknown ref mode %d", mode)
	}
	link, err := signLink(ref, mode, [sha256.Size]byte{}, scheme, epoch, rnd)
	if err != nil {
		return nil, err
	}
	c.Links = []*Link{link}
	if mode == RefCommitment {
		c.sealed, _ = c.openingFingerprint()
	}
	return c, nil
}

func signLink(ref []byte, mode RefMode, prev [sha256.Size]byte, scheme sig.Scheme, epoch int, rnd io.Reader) (*Link, error) {
	signer, err := sig.Get(scheme)
	if err != nil {
		return nil, err
	}
	kp, err := signer.Generate(rnd)
	if err != nil {
		return nil, err
	}
	l := &Link{Epoch: epoch, Mode: mode, Ref: ref, PrevHash: prev, Scheme: scheme, Public: kp.Public}
	s, err := signer.Sign(kp, l.digestInput(), rnd)
	if err != nil {
		return nil, err
	}
	l.Sig = s
	return l, nil
}

// Renew appends a link signed with the given (presumably newer) scheme at
// the given epoch. The new link covers the previous link's full hash, so
// earlier signatures need only have been unbroken up to this moment.
func (c *Chain) Renew(scheme sig.Scheme, epoch int, rnd io.Reader) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	last := c.Links[len(c.Links)-1]
	if epoch < last.Epoch {
		return fmt.Errorf("%w: %d after %d", ErrEpochOrder, epoch, last.Epoch)
	}
	link, err := signLink(last.Ref, c.Mode, last.hash(), scheme, epoch, rnd)
	if err != nil {
		return err
	}
	c.Links = append(c.Links, link)
	return nil
}

// Verify checks the chain's integrity as of epoch `now` under the given
// break schedule. The rule per link k: its signature must verify, it must
// cover link k−1's hash, epochs must be monotone, and its scheme must
// have remained unbroken until link k+1 was created (or until `now` for
// the final link). A scheme that broke *after* its successor link exists
// does no damage — that is the whole point of renewal.
func (c *Chain) Verify(now int, breaks sig.BreakSchedule) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	var prevHash [sha256.Size]byte
	prevEpoch := -1 << 62
	for k, l := range c.Links {
		if l.Epoch < prevEpoch {
			return fmt.Errorf("%w: link %d", ErrEpochOrder, k)
		}
		if l.PrevHash != prevHash {
			return fmt.Errorf("%w: link %d", ErrChainGap, k)
		}
		signer, err := sig.Get(l.Scheme)
		if err != nil {
			return err
		}
		if err := signer.Verify(l.Public, l.digestInput(), l.Sig); err != nil {
			return fmt.Errorf("%w: link %d (%s): %v", ErrBrokenLink, k, l.Scheme, err)
		}
		// The scheme must have survived until the next link's epoch.
		horizon := now
		if k+1 < len(c.Links) {
			horizon = c.Links[k+1].Epoch
		}
		if breaks.BrokenAt(l.Scheme, horizon) {
			// Broken at or before the horizon: was it broken when the
			// successor was created (or now, for the head)? If the break
			// epoch is <= horizon, the guarantee fails.
			return fmt.Errorf("%w: link %d scheme %s broke at epoch %d, horizon %d",
				ErrLateRenewal, k, l.Scheme, breaks[l.Scheme], horizon)
		}
		prevHash = l.hash()
		prevEpoch = l.Epoch
	}
	return nil
}

// VerifyData checks that the chain actually vouches for the given data:
// in hash mode by digest comparison, in commitment mode by comparing the
// digest with the opening's committed scalar and checking the opening
// against the commitment (see VerifyDigest for when that check is
// memoized).
func (c *Chain) VerifyData(data []byte) error {
	return c.VerifyDigest(sha256.Sum256(data))
}

// VerifyDigest is VerifyData for callers that hashed the object
// incrementally (streaming reads): the chain binds the digest, so the
// check never needs the whole plaintext at once.
//
// In commitment mode the digest is compared with Opening.M on every
// call. The Pedersen check of the opening against Links[0].Ref — two
// modexps — runs in full unless the current (Ref, M, R) triple hashes to
// the fingerprint recorded at seal, in which case it is the very triple
// the commitment was computed from and the check cannot fail. A ref or
// opening changed after seal, by replacement or in place, and a chain
// never sealed in this process always take the full check, so the
// verdict is the same function of the same inputs either way.
func (c *Chain) VerifyDigest(digest [sha256.Size]byte) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	first := c.Links[0]
	switch c.Mode {
	case RefHash:
		if string(digest[:]) != string(first.Ref) {
			return ErrOpeningFailed
		}
		return nil
	case RefCommitment:
		if c.Opening == nil || c.grp == nil {
			return fmt.Errorf("%w: opening not held", ErrOpeningFailed)
		}
		var m big.Int
		m.SetBytes(digest[:28])
		if c.Opening.M == nil || m.Cmp(c.Opening.M) != 0 {
			return ErrOpeningFailed
		}
		if c.sealed != ([sha256.Size]byte{}) {
			if fp, ok := c.openingFingerprint(); ok && fp == c.sealed {
				return nil
			}
		}
		pc := commit.PedersenCommitmentFromBytes(first.Ref)
		if err := commit.NewPedersen(c.grp).Verify(pc, *c.Opening); err != nil {
			return fmt.Errorf("%w: %v", ErrOpeningFailed, err)
		}
		return nil
	default:
		return fmt.Errorf("tstamp: unknown ref mode %d", c.Mode)
	}
}

// openingFingerprint hashes the triple the Pedersen check consumes: the
// committed reference and both opening scalars. Each field is
// length-prefixed and the scalars carry their sign, so two distinct
// triples never share an encoding. ok is false when the chain holds no
// complete opening.
func (c *Chain) openingFingerprint() (fp [sha256.Size]byte, ok bool) {
	if len(c.Links) == 0 || c.Opening == nil || c.Opening.M == nil || c.Opening.R == nil {
		return fp, false
	}
	var buf [640]byte // a 2048-bit group's triple fits without growing
	b := binary.BigEndian.AppendUint32(buf[:0], uint32(len(c.Links[0].Ref)))
	b = append(b, c.Links[0].Ref...)
	b = appendScalar(b, c.Opening.M)
	b = appendScalar(b, c.Opening.R)
	return sha256.Sum256(b), true
}

// appendScalar appends x's sign, word count and words (big.Int keeps
// them normalised, so equal values encode equally).
func appendScalar(b []byte, x *big.Int) []byte {
	b = append(b, byte(x.Sign()+1))
	words := x.Bits()
	b = binary.BigEndian.AppendUint32(b, uint32(len(words)))
	for _, w := range words {
		b = binary.BigEndian.AppendUint64(b, uint64(w))
	}
	return b
}

// exactScalar copies a non-negative x into a backing array of exactly
// its word length.
func exactScalar(x *big.Int) *big.Int {
	w := x.Bits()
	return new(big.Int).SetBits(append(make([]big.Word, 0, len(w)), w...))
}

// Head returns the most recent link.
func (c *Chain) Head() *Link {
	if len(c.Links) == 0 {
		return nil
	}
	return c.Links[len(c.Links)-1]
}

// Len returns the number of links.
func (c *Chain) Len() int { return len(c.Links) }
