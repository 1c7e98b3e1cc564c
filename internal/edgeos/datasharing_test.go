package edgeos

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/vdapcrypto"
)

var sharingSecret = []byte("vehicle-data-sharing-master-key!")

func newSharing(t *testing.T) *DataSharing {
	t.Helper()
	d, err := NewDataSharing(sharingSecret, 16)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDataSharingValidation(t *testing.T) {
	if _, err := NewDataSharing([]byte("short"), 4); err == nil {
		t.Fatal("short secret accepted")
	}
	d, err := NewDataSharing(sharingSecret, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.retain != 1 {
		t.Fatalf("retain = %d, want clamp to 1", d.retain)
	}
}

func TestEnroll(t *testing.T) {
	d := newSharing(t)
	tok, err := d.Enroll("camera-svc")
	if err != nil || tok == "" {
		t.Fatalf("Enroll = %q, %v", tok, err)
	}
	if _, err := d.Enroll("camera-svc"); err == nil {
		t.Fatal("double enrollment accepted")
	}
	if _, err := d.Enroll(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestTokensAreKeyedBySecret: a token is an HMAC under the module's
// secret, so knowing a service's name is not enough to act as it, and two
// vehicles with different secrets mint different tokens for one name.
func TestTokensAreKeyedBySecret(t *testing.T) {
	d := newSharing(t)
	tok, err := d.Enroll("camera")
	if err != nil {
		t.Fatal(err)
	}
	must(t, d.Grant("frames", "camera", "pubsub"))
	forged := vdapcrypto.Fingerprint([]byte("token:camera"))
	if err := d.Publish("camera", forged, "frames", time.Second, []byte("x")); err == nil {
		t.Fatal("unkeyed fingerprint of the service name accepted as its token")
	}
	if _, err := d.Fetch("camera", forged, "frames", 0); err == nil {
		t.Fatal("unkeyed fingerprint of the service name accepted for fetch")
	}
	other, err := NewDataSharing([]byte("another-vehicle-sharing-secret!!"), 16)
	if err != nil {
		t.Fatal(err)
	}
	otherTok, err := other.Enroll("camera")
	if err != nil {
		t.Fatal(err)
	}
	if otherTok == tok {
		t.Fatal("different secrets minted the same token")
	}
	if err := d.Publish("camera", otherTok, "frames", time.Second, []byte("x")); err == nil {
		t.Fatal("another vehicle's token accepted")
	}
	must(t, d.Publish("camera", tok, "frames", time.Second, []byte("x")))
}

// TestShareCameraBetweenServices reproduces the paper's example: the
// pedestrian detector and mobile-A3 both read camera frames; A3 shares its
// results with the vehicle-recorder service.
func TestShareCameraBetweenServices(t *testing.T) {
	d := newSharing(t)
	camTok, _ := d.Enroll("camera")
	pedTok, _ := d.Enroll("pedestrian-detect")
	a3Tok, _ := d.Enroll("mobile-a3")
	recTok, _ := d.Enroll("vehicle-recorder")

	must(t, d.Grant("frames", "camera", "pub"))
	must(t, d.Grant("frames", "pedestrian-detect", "sub"))
	must(t, d.Grant("frames", "mobile-a3", "sub"))
	must(t, d.Grant("a3-results", "mobile-a3", "pub"))
	must(t, d.Grant("a3-results", "vehicle-recorder", "sub"))

	frame := []byte("frame-001-jpeg-bytes")
	must(t, d.Publish("camera", camTok, "frames", time.Second, frame))

	for svc, tok := range map[string]string{"pedestrian-detect": pedTok, "mobile-a3": a3Tok} {
		msgs, err := d.Fetch(svc, tok, "frames", 0)
		if err != nil {
			t.Fatalf("%s fetch: %v", svc, err)
		}
		if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, frame) {
			t.Fatalf("%s got %v", svc, msgs)
		}
	}
	must(t, d.Publish("mobile-a3", a3Tok, "a3-results", 2*time.Second, []byte("plate ABC-123 seen")))
	msgs, err := d.Fetch("vehicle-recorder", recTok, "a3-results", 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("recorder fetch = %v, %v", msgs, err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestACLEnforced(t *testing.T) {
	d := newSharing(t)
	camTok, _ := d.Enroll("camera")
	spyTok, _ := d.Enroll("spy")
	must(t, d.Grant("frames", "camera", "pub"))
	must(t, d.Publish("camera", camTok, "frames", 0, []byte("x")))

	if _, err := d.Fetch("spy", spyTok, "frames", 0); err == nil {
		t.Fatal("ungranted fetch succeeded")
	}
	if err := d.Publish("spy", spyTok, "frames", 0, []byte("fake")); err == nil {
		t.Fatal("ungranted publish succeeded")
	}
	// Publisher cannot read its own topic without sub rights.
	if _, err := d.Fetch("camera", camTok, "frames", 0); err == nil {
		t.Fatal("pub-only service fetched")
	}
	// pubsub grants both.
	must(t, d.Grant("frames", "spy", "pubsub"))
	if _, err := d.Fetch("spy", spyTok, "frames", 0); err != nil {
		t.Fatalf("pubsub fetch failed: %v", err)
	}
}

func TestAuthenticationEnforced(t *testing.T) {
	d := newSharing(t)
	_, _ = d.Enroll("camera")
	must(t, d.Grant("frames", "camera", "pub"))
	if err := d.Publish("camera", "wrong-token", "frames", 0, []byte("x")); err == nil {
		t.Fatal("wrong token accepted")
	}
	if err := d.Publish("ghost", "any", "frames", 0, []byte("x")); err == nil {
		t.Fatal("unenrolled service accepted")
	}
	if err := d.Grant("frames", "ghost", "pub"); err == nil {
		t.Fatal("grant to unenrolled service accepted")
	}
	if err := d.Grant("frames", "camera", "admin"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRetentionBound(t *testing.T) {
	d, err := NewDataSharing(sharingSecret, 3)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := d.Enroll("svc")
	must(t, d.Grant("t", "svc", "pubsub"))
	for i := 0; i < 10; i++ {
		must(t, d.Publish("svc", tok, "t", time.Duration(i)*time.Second, []byte{byte(i)}))
	}
	msgs, err := d.Fetch("svc", tok, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("retained = %d, want 3", len(msgs))
	}
	if msgs[0].Payload[0] != 7 || msgs[2].Payload[0] != 9 {
		t.Fatalf("wrong retained window: %v", msgs)
	}
}

func TestFetchSinceFilter(t *testing.T) {
	d := newSharing(t)
	tok, _ := d.Enroll("svc")
	must(t, d.Grant("t", "svc", "pubsub"))
	must(t, d.Publish("svc", tok, "t", time.Second, []byte("old")))
	must(t, d.Publish("svc", tok, "t", 5*time.Second, []byte("new")))
	msgs, err := d.Fetch("svc", tok, "t", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Payload) != "new" {
		t.Fatalf("since filter broken: %v", msgs)
	}
}

func TestTopicsListing(t *testing.T) {
	d := newSharing(t)
	tok, _ := d.Enroll("svc")
	must(t, d.Grant("zzz", "svc", "pub"))
	must(t, d.Grant("aaa", "svc", "pub"))
	must(t, d.Publish("svc", tok, "zzz", 0, []byte("1")))
	must(t, d.Publish("svc", tok, "aaa", 0, []byte("2")))
	topics := d.Topics()
	if len(topics) != 2 || topics[0] != "aaa" || topics[1] != "zzz" {
		t.Fatalf("topics = %v", topics)
	}
}
