package vdapcrypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var testSecret = []byte("0123456789abcdef0123456789abcdef")

func TestNewPseudonymSchemeValidation(t *testing.T) {
	if _, err := NewPseudonymScheme([]byte("short"), time.Minute); err == nil {
		t.Fatal("short secret accepted")
	}
	if _, err := NewPseudonymScheme(testSecret, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestPseudonymRotation(t *testing.T) {
	s, err := NewPseudonymScheme(testSecret, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s.At(0)
	p1 := s.At(9 * time.Minute)
	p2 := s.At(11 * time.Minute)
	if p0 != p1 {
		t.Fatal("pseudonym changed within one epoch")
	}
	if p0 == p2 {
		t.Fatal("pseudonym did not rotate across epochs")
	}
	if len(p0) != 32 {
		t.Fatalf("pseudonym length = %d hex chars, want 32", len(p0))
	}
}

func TestPseudonymUnlinkabilityAcrossVehicles(t *testing.T) {
	a, _ := NewPseudonymScheme(testSecret, time.Minute)
	b, _ := NewPseudonymScheme([]byte("fedcba9876543210fedcba9876543210"), time.Minute)
	if a.At(0) == b.At(0) {
		t.Fatal("different vehicles produced identical pseudonyms")
	}
}

func TestPseudonymMine(t *testing.T) {
	s, _ := NewPseudonymScheme(testSecret, time.Minute)
	now := 30 * time.Minute
	if !s.Mine(s.At(now), now, 0) {
		t.Fatal("current pseudonym not recognized")
	}
	old := s.At(now - 5*time.Minute)
	if s.Mine(old, now, 0) {
		t.Fatal("expired pseudonym recognized without lookback")
	}
	if !s.Mine(old, now, 10*time.Minute) {
		t.Fatal("recent pseudonym not recognized within lookback")
	}
	other, _ := NewPseudonymScheme([]byte("fedcba9876543210fedcba9876543210"), time.Minute)
	if s.Mine(other.At(now), now, time.Hour) {
		t.Fatal("foreign pseudonym recognized")
	}
	if s.Mine(s.At(2*time.Minute), time.Minute, 5*time.Minute) {
		t.Fatal("future-epoch lookup with negative start recognized wrongly")
	}
}

func TestSealerRoundTrip(t *testing.T) {
	s, err := NewSealer(testSecret)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pedestrian at (12.5, 3.2), confidence 0.93")
	env, err := s.Seal(msg, []byte("svc:pedestrian-alert"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(env, []byte("svc:pedestrian-alert"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestSealerRejectsWrongAssociatedData(t *testing.T) {
	s, _ := NewSealer(testSecret)
	env, _ := s.Seal([]byte("secret"), []byte("svc:a"))
	if _, err := s.Open(env, []byte("svc:b")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt for wrong AD", err)
	}
}

func TestSealerRejectsTampering(t *testing.T) {
	s, _ := NewSealer(testSecret)
	env, _ := s.Seal([]byte("secret"), nil)
	env[len(env)-1] ^= 0xff
	if _, err := s.Open(env, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt after tamper", err)
	}
	if _, err := s.Open([]byte("tiny"), nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt for short envelope", err)
	}
}

func TestSealerRejectsWrongKey(t *testing.T) {
	a, _ := NewSealer(testSecret)
	b, _ := NewSealer([]byte("fedcba9876543210fedcba9876543210"))
	env, _ := a.Seal([]byte("secret"), nil)
	if _, err := b.Open(env, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt with wrong key", err)
	}
}

func TestSealerNoncesUnique(t *testing.T) {
	s, _ := NewSealer(testSecret)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		env, err := s.Seal([]byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(env[:12])
		if seen[nonce] {
			t.Fatal("nonce reused")
		}
		seen[nonce] = true
	}
}

func TestNewSealerValidation(t *testing.T) {
	if _, err := NewSealer([]byte("short")); err == nil {
		t.Fatal("short secret accepted")
	}
}

func TestSealerRoundTripProperty(t *testing.T) {
	s, _ := NewSealer(testSecret)
	if err := quick.Check(func(msg, ad []byte) bool {
		env, err := s.Seal(msg, ad)
		if err != nil {
			return false
		}
		got, err := s.Open(env, ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprint(t *testing.T) {
	a := Fingerprint([]byte("service-binary-v1"))
	b := Fingerprint([]byte("service-binary-v1"))
	c := Fingerprint([]byte("service-binary-v2"))
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	if a == c {
		t.Fatal("different data share fingerprint")
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint length = %d, want 16", len(a))
	}
}
