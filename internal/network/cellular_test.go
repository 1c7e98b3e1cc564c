package network

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

const (
	mph35 = 15.6464
	mph70 = 31.2928
)

func TestLossComponentsAtRest(t *testing.T) {
	if got := CongestionLoss(3.8); math.Abs(got-0.002) > 1e-9 {
		t.Fatalf("CongestionLoss(3.8) = %v, want 0.002", got)
	}
	if CongestionLoss(0) != 0 || CongestionLoss(-1) != 0 {
		t.Fatal("non-positive bitrate congestion != 0")
	}
	if FadeLoss(0, 3.8) != 0 {
		t.Fatal("fade at rest != 0")
	}
	if OutageFraction(0) != 0 {
		t.Fatal("outage at rest != 0")
	}
}

func TestLossMonotonicity(t *testing.T) {
	// Loss must increase with speed and with bitrate.
	speeds := []float64{0, 5, 10, 15, 20, 25, 30, 35}
	for i := 1; i < len(speeds); i++ {
		a := ExpectedPacketLoss(speeds[i-1], 3.8)
		b := ExpectedPacketLoss(speeds[i], 3.8)
		if b < a {
			t.Fatalf("loss decreased with speed: %v@%v -> %v@%v", a, speeds[i-1], b, speeds[i])
		}
	}
	for _, v := range speeds {
		if ExpectedPacketLoss(v, 5.8) < ExpectedPacketLoss(v, 3.8) {
			t.Fatalf("1080P loss below 720P at speed %v", v)
		}
	}
}

// TestFigure2PacketLossCalibration checks the closed-form model against the
// paper's six measured packet-loss points. Tolerances are loose by design:
// the goal is shape, not decimal equality.
func TestFigure2PacketLossCalibration(t *testing.T) {
	cases := []struct {
		name    string
		speed   float64
		bitrate float64
		want    float64
		tol     float64
	}{
		{"static-720p", 0, 3.8, 0.002, 0.002},
		{"static-1080p", 0, 5.8, 0.006, 0.004},
		{"35mph-720p", mph35, 3.8, 0.021, 0.010},
		{"35mph-1080p", mph35, 5.8, 0.070, 0.020},
		{"70mph-720p", mph70, 3.8, 0.535, 0.060},
		{"70mph-1080p", mph70, 5.8, 0.617, 0.060},
	}
	for _, tc := range cases {
		got := ExpectedPacketLoss(tc.speed, tc.bitrate)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: loss = %.4f, paper %.4f (tol %.3f)", tc.name, got, tc.want, tc.tol)
		}
	}
}

func newTestChannel(t *testing.T, speedMS, bitrate float64, seed int64) *CellularChannel {
	t.Helper()
	road, err := geo.NewRoad(40000)
	if err != nil {
		t.Fatal(err)
	}
	road.PlaceStations(40, geo.BaseStation, 800, 0, "bs") // 1 km spacing
	mob := geo.Mobility{Road: road, SpeedMS: speedMS}
	ch, err := NewCellularChannel(Catalog()["lte"], mob, bitrate, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestChannelMatchesClosedForm drives packets through the event channel and
// checks the empirical loss approaches the closed-form expectation.
func TestChannelMatchesClosedForm(t *testing.T) {
	for _, speed := range []float64{0, mph35, mph70} {
		ch := newTestChannel(t, speed, 5.8, 99)
		// 5.8 Mbps with 1316 B payloads ≈ 551 packets/s for 5 minutes.
		payloadBits := 1316.0 * 8
		interval := time.Duration(float64(time.Second) * payloadBits / 5.8e6)
		now := time.Duration(0)
		const sent = 551 * 300
		lost := 0
		for i := 0; i < sent; i++ {
			if !ch.SendPacket(now) {
				lost++
			}
			now += interval
		}
		want := ExpectedPacketLoss(speed, 5.8)
		got := float64(lost) / sent
		if math.Abs(got-want) > 0.05 {
			t.Errorf("speed %.1f: channel loss %.4f vs closed-form %.4f", speed, got, want)
		}
	}
}

func TestChannelLossIsBursty(t *testing.T) {
	// At 70 MPH most losses come from outage windows, so consecutive
	// losses should be far more common than under independent loss.
	ch := newTestChannel(t, mph70, 3.8, 7)
	interval := 2770 * time.Microsecond
	now := time.Duration(0)
	var prevLost bool
	losses, runs := 0, 0
	for i := 0; i < 100000; i++ {
		ok := ch.SendPacket(now)
		if !ok {
			losses++
			if prevLost {
				runs++
			}
		}
		prevLost = !ok
		now += interval
	}
	if losses == 0 {
		t.Fatal("no losses at 70 MPH")
	}
	p := float64(losses) / 100000
	// Under independence, P(loss | prev loss) == p. Burstiness should make
	// the conditional probability much larger.
	conditional := float64(runs) / float64(losses)
	if conditional < 1.5*p {
		t.Fatalf("loss not bursty: P(loss|loss) = %.3f vs marginal %.3f", conditional, p)
	}
}

func TestChannelStaticHasNoOutages(t *testing.T) {
	ch := newTestChannel(t, 0, 3.8, 3)
	for d := time.Duration(0); d < 10*time.Minute; d += time.Second {
		if ch.InOutage(d) {
			t.Fatal("static vehicle entered outage")
		}
	}
}

func TestNewCellularChannelValidation(t *testing.T) {
	mob := geo.Mobility{}
	if _, err := NewCellularChannel(LinkSpec{}, mob, 3.8, sim.NewRNG(1)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := NewCellularChannel(Catalog()["lte"], mob, 0, sim.NewRNG(1)); err == nil {
		t.Fatal("zero bitrate accepted")
	}
	if _, err := NewCellularChannel(Catalog()["lte"], mob, 3.8, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

// TestZeroDwellChannelAtLargeTime: regression for the advanceTo infinite
// loop — a parked vehicle (dwell 0) queried at a virtual time at or beyond
// the far-future handoff sentinel must answer, not spin forever.
func TestZeroDwellChannelAtLargeTime(t *testing.T) {
	lte, err := LookupLink("lte")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCellularChannel(lte, geo.Mobility{SpeedMS: 0}, 3.8, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		// Past the MaxInt64/2 sentinel: the pre-fix loop advanced the
		// schedule by a zero dwell forever here.
		done <- ch.SendPacket(time.Duration(math.MaxInt64/2) + time.Hour)
	}()
	select {
	case delivered := <-done:
		if !delivered {
			t.Fatal("parked vehicle lost a packet to a handoff outage")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("zero-dwell channel spun forever in advanceTo")
	}
	if ch.InOutage(time.Duration(math.MaxInt64 - 1)) {
		t.Fatal("parked vehicle reported a handoff outage")
	}
}
