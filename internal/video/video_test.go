package video

import (
	"math"
	"testing"
	"time"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{Profile720p(), Profile1080p()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
	if Profile720p().BitrateMbps != 3.8 || Profile1080p().BitrateMbps != 5.8 {
		t.Fatal("paper bitrates wrong")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", Width: 0, Height: 10, FPS: 30, BitrateMbps: 1, KeyInterval: time.Second},
		{Name: "x", Width: 10, Height: 10, FPS: 0, BitrateMbps: 1, KeyInterval: time.Second},
		{Name: "x", Width: 10, Height: 10, FPS: 30, BitrateMbps: 0, KeyInterval: time.Second},
		{Name: "x", Width: 10, Height: 10, FPS: 30, BitrateMbps: 1, KeyInterval: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream(Profile{}, time.Minute); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := NewStream(Profile720p(), 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestStreamStructure(t *testing.T) {
	s, err := NewStream(Profile720p(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FrameCount(); got != 300 {
		t.Fatalf("FrameCount = %d, want 300", got)
	}
	if got := s.framesPerGOP; got != 60 {
		t.Fatalf("framesPerGOP = %d, want 60", got)
	}
	f0, err := s.Frame(0)
	if err != nil || !f0.Key || f0.GOP != 0 || f0.PTS != 0 {
		t.Fatalf("frame 0 = %+v, %v; want key frame of GOP 0", f0, err)
	}
	f60, _ := s.Frame(60)
	if !f60.Key || f60.GOP != 1 || f60.PTS != 2*time.Second {
		t.Fatalf("frame 60 = %+v; want key frame of GOP 1 at 2s", f60)
	}
	f1, _ := s.Frame(1)
	if f1.Key {
		t.Fatal("frame 1 is a key frame")
	}
	if f0.Bytes <= f1.Bytes {
		t.Fatalf("key frame (%d B) not larger than delta frame (%d B)", f0.Bytes, f1.Bytes)
	}
	if _, err := s.Frame(-1); err == nil {
		t.Fatal("negative frame index accepted")
	}
	if _, err := s.Frame(300); err == nil {
		t.Fatal("out-of-range frame index accepted")
	}
}

func TestStreamBitrateConservation(t *testing.T) {
	for _, p := range []Profile{Profile720p(), Profile1080p()} {
		s, _ := NewStream(p, time.Minute)
		var total int
		for i := 0; i < s.FrameCount(); i++ {
			f, _ := s.Frame(i)
			total += f.Bytes
		}
		wantBits := p.BitrateMbps * 1e6 * 60
		gotBits := float64(total) * 8
		if math.Abs(gotBits-wantBits)/wantBits > 0.02 {
			t.Errorf("%s: stream carries %.0f bits, want ~%.0f (±2%%)", p.Name, gotBits, wantBits)
		}
	}
}

func TestFramePackets(t *testing.T) {
	f := Frame{Bytes: PayloadBytes}
	if f.Packets() != 1 {
		t.Fatalf("one-payload frame = %d packets", f.Packets())
	}
	f.Bytes = PayloadBytes + 1
	if f.Packets() != 2 {
		t.Fatalf("payload+1 frame = %d packets, want 2", f.Packets())
	}
	f.Bytes = 0
	if f.Packets() != 1 {
		t.Fatalf("empty frame = %d packets, want 1 (header still sent)", f.Packets())
	}
}

// scriptedChannel loses packets per a predicate over the packet sequence.
type scriptedChannel struct {
	n    int
	lose func(i int) bool
}

func (c *scriptedChannel) SendPacket(time.Duration) bool {
	i := c.n
	c.n++
	return !c.lose(i)
}

func TestUploadLosslessChannel(t *testing.T) {
	s, _ := NewStream(Profile720p(), 10*time.Second)
	rpt, err := Upload(s, &scriptedChannel{lose: func(int) bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.PacketsLost != 0 || rpt.FramesLost != 0 || rpt.GOPsDead != 0 {
		t.Fatalf("lossless upload reported loss: %+v", rpt)
	}
	if rpt.FramesSent != 300 || rpt.GOPsSent != 5 {
		t.Fatalf("sent %d frames / %d GOPs, want 300/5", rpt.FramesSent, rpt.GOPsSent)
	}
}

func TestUploadKeyFrameLossKillsGOP(t *testing.T) {
	s, _ := NewStream(Profile720p(), 4*time.Second) // 2 GOPs
	// Lose exactly the first packet of the stream (first key frame header).
	rpt, err := Upload(s, &scriptedChannel{lose: func(i int) bool { return i == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.PacketsLost != 1 {
		t.Fatalf("PacketsLost = %d, want 1", rpt.PacketsLost)
	}
	if rpt.GOPsDead != 1 {
		t.Fatalf("GOPsDead = %d, want 1", rpt.GOPsDead)
	}
	// All 60 frames of GOP 0 lost; GOP 1 intact.
	if rpt.FramesLost != 60 {
		t.Fatalf("FramesLost = %d, want 60 (whole first GOP)", rpt.FramesLost)
	}
}

func TestUploadTailKeyPacketLossIsConcealable(t *testing.T) {
	s, _ := NewStream(Profile720p(), 2*time.Second)
	f0, _ := s.Frame(0)
	if f0.Packets() <= HeaderCriticalPackets {
		t.Skip("key frame too small for tail-loss test")
	}
	// Lose one key-frame packet beyond the critical header region.
	target := HeaderCriticalPackets + 5
	rpt, err := Upload(s, &scriptedChannel{lose: func(i int) bool { return i == target }})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.GOPsDead != 0 {
		t.Fatalf("tail key packet loss killed the GOP: %+v", rpt)
	}
	if rpt.FramesLost != 0 {
		t.Fatalf("FramesLost = %d, want 0 (concealable)", rpt.FramesLost)
	}
}

func TestUploadDeltaFrameFirstPacketLoss(t *testing.T) {
	s, _ := NewStream(Profile720p(), 2*time.Second)
	f0, _ := s.Frame(0)
	keyPkts := f0.Packets()
	// Lose the first packet of frame 1 (the first delta frame).
	rpt, err := Upload(s, &scriptedChannel{lose: func(i int) bool { return i == keyPkts }})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.FramesLost != 1 {
		t.Fatalf("FramesLost = %d, want exactly the one delta frame", rpt.FramesLost)
	}
	if rpt.GOPsDead != 0 {
		t.Fatal("delta frame loss killed GOP")
	}
}

// TestUploadAmplification reproduces Figure 2's headline property: frame
// loss exceeds packet loss under uniform random loss.
func TestUploadAmplification(t *testing.T) {
	s, _ := NewStream(Profile1080p(), 5*time.Minute)
	// Deterministic pseudo-random 7% loss pattern.
	rpt, err := Upload(s, &scriptedChannel{lose: func(i int) bool { return i*2654435761%100 < 7 }})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.FrameLossRate <= rpt.PacketLossRate {
		t.Fatalf("frame loss %.3f not amplified over packet loss %.3f",
			rpt.FrameLossRate, rpt.PacketLossRate)
	}
	if rpt.FrameLossRate < 3*rpt.PacketLossRate {
		t.Fatalf("amplification too weak: frame %.3f vs packet %.3f",
			rpt.FrameLossRate, rpt.PacketLossRate)
	}
}

func TestUploadNilArgs(t *testing.T) {
	s, _ := NewStream(Profile720p(), time.Second)
	if _, err := Upload(nil, &scriptedChannel{lose: func(int) bool { return false }}); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := Upload(s, nil); err == nil {
		t.Fatal("nil channel accepted")
	}
}

func TestUploadPacketTimesMonotonic(t *testing.T) {
	s, _ := NewStream(Profile720p(), 4*time.Second)
	var last time.Duration = -1
	mono := true
	ch := &monotonicChannel{check: func(at time.Duration) {
		if at < last {
			mono = false
		}
		last = at
	}}
	if _, err := Upload(s, ch); err != nil {
		t.Fatal(err)
	}
	if !mono {
		t.Fatal("packet send times went backwards")
	}
}

type monotonicChannel struct{ check func(time.Duration) }

func (c *monotonicChannel) SendPacket(at time.Duration) bool { c.check(at); return true }
