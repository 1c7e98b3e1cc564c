package edgeos

import (
	"testing"
	"time"
)

var privacySecret = []byte("vehicle-long-term-privacy-secret")

func TestNewPrivacyModuleValidation(t *testing.T) {
	if _, err := NewPrivacyModule([]byte("short"), time.Minute); err == nil {
		t.Fatal("short secret accepted")
	}
	if _, err := NewPrivacyModule(privacySecret, 0); err == nil {
		t.Fatal("zero rotation accepted")
	}
}

func TestPseudonymRotates(t *testing.T) {
	p, err := NewPrivacyModule(privacySecret, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Pseudonym(0)
	b := p.Pseudonym(5 * time.Minute)
	c := p.Pseudonym(15 * time.Minute)
	if a != b {
		t.Fatal("pseudonym rotated within epoch")
	}
	if a == c {
		t.Fatal("pseudonym did not rotate")
	}
}
