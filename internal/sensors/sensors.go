// Package sensors generates the synthetic on-board data sources OpenVDAP
// consumes: OBD-II readings (with diagnostic trouble codes), GPS traces and
// camera frames. The generators are deterministic given a seed, and their
// statistical behavior (drift, noise, fault injection) is controllable so
// tests and experiments can provoke specific conditions.
package sensors

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// OBDReading is one sample of the standard powertrain PIDs the paper's DDI
// collects (engine RPM, speed, coolant temperature, tire pressure, battery).
type OBDReading struct {
	At           time.Duration `json:"at"`
	SpeedKPH     float64       `json:"speedKph"`
	RPM          float64       `json:"rpm"`
	CoolantTempC float64       `json:"coolantTempC"`
	TirePressure [4]float64    `json:"tirePressureKPa"`
	BatteryV     float64       `json:"batteryVolts"`
	FuelPct      float64       `json:"fuelPct"`
	ThrottlePct  float64       `json:"throttlePct"`
	AccelMS2     float64       `json:"accelMs2"`
	DTCs         []string      `json:"dtcs,omitempty"`
}

// FaultKind selects a failure mode for injection.
type FaultKind int

const (
	// FaultOverheat drives coolant temperature upward until a DTC fires.
	// The zero FaultKind injects nothing.
	FaultOverheat FaultKind = iota + 1
	// FaultTireLeak bleeds pressure from tire 2.
	FaultTireLeak
	// FaultBatteryDrain sags battery voltage.
	FaultBatteryDrain
	// FaultMisfire raises RPM variance and emits P0300 codes.
	FaultMisfire
)

// DTC codes emitted by the fault models (standard OBD-II trouble codes).
const (
	DTCOverheat = "P0217" // engine over-temperature
	DTCTire     = "C0750" // tire pressure sensor/low
	DTCBattery  = "P0562" // system voltage low
	DTCMisfire  = "P0300" // random/multiple cylinder misfire
)

// OBD simulates the on-board diagnostics bus.
type OBD struct {
	rng   *sim.RNG
	fault FaultKind
	// fault progression state
	coolant float64
	tire2   float64
	battery float64
	fuel    float64
}

// NewOBD returns a healthy-vehicle OBD source.
func NewOBD(rng *sim.RNG) (*OBD, error) {
	if rng == nil {
		return nil, fmt.Errorf("sensors: nil RNG")
	}
	return &OBD{rng: rng, coolant: 90, tire2: 230, battery: 13.8, fuel: 87}, nil
}

// InjectFault switches the generator into the given failure mode; the
// affected signal degrades progressively on subsequent reads.
func (o *OBD) InjectFault(k FaultKind) { o.fault = k }

// Read samples the bus at virtual time t for a vehicle moving at speedKPH.
func (o *OBD) Read(t time.Duration, speedKPH float64) OBDReading {
	rpmBase := 700 + speedKPH*30
	r := OBDReading{
		At:           t,
		SpeedKPH:     speedKPH + o.rng.Normal(0, 0.4),
		RPM:          rpmBase + o.rng.Normal(0, 25),
		CoolantTempC: o.coolant + o.rng.Normal(0, 0.5),
		BatteryV:     o.battery + o.rng.Normal(0, 0.05),
		FuelPct:      o.fuel,
		ThrottlePct:  clamp(speedKPH/1.6+o.rng.Normal(0, 2), 0, 100),
		AccelMS2:     o.rng.Normal(0, 0.3),
	}
	r.TirePressure = [4]float64{
		230 + o.rng.Normal(0, 1),
		230 + o.rng.Normal(0, 1),
		o.tire2 + o.rng.Normal(0, 1),
		230 + o.rng.Normal(0, 1),
	}
	o.fuel = clamp(o.fuel-0.0004*speedKPH/100, 0, 100)
	switch o.fault {
	case FaultOverheat:
		o.coolant += 0.6
		if r.CoolantTempC > 110 {
			r.DTCs = append(r.DTCs, DTCOverheat)
		}
	case FaultTireLeak:
		o.tire2 -= 0.8
		if r.TirePressure[2] < 180 {
			r.DTCs = append(r.DTCs, DTCTire)
		}
	case FaultBatteryDrain:
		o.battery -= 0.02
		if r.BatteryV < 11.5 {
			r.DTCs = append(r.DTCs, DTCBattery)
		}
	case FaultMisfire:
		r.RPM += o.rng.Normal(0, 350)
		if o.rng.Bernoulli(0.4) {
			r.DTCs = append(r.DTCs, DTCMisfire)
		}
	}
	return r
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GPSFix is one position sample.
type GPSFix struct {
	At       time.Duration `json:"at"`
	X        float64       `json:"x"` // meters along road
	Y        float64       `json:"y"`
	SpeedMS  float64       `json:"speedMs"`
	Heading  float64       `json:"headingDeg"`
	Accuracy float64       `json:"accuracyM"`
}

// GPS samples a vehicle's mobility with realistic position noise.
type GPS struct {
	mob geo.Mobility
	rng *sim.RNG
}

// NewGPS builds a GPS bound to a mobility trace.
func NewGPS(mob geo.Mobility, rng *sim.RNG) (*GPS, error) {
	if rng == nil {
		return nil, fmt.Errorf("sensors: nil RNG")
	}
	return &GPS{mob: mob, rng: rng}, nil
}

// Fix returns a position sample at virtual time t.
func (g *GPS) Fix(t time.Duration) GPSFix {
	p := g.mob.PositionAt(t)
	acc := g.rng.Uniform(1.5, 5)
	return GPSFix{
		At:       t,
		X:        p.X + g.rng.Normal(0, acc/2),
		Y:        p.Y + g.rng.Normal(0, acc/2),
		SpeedMS:  g.mob.SpeedMS + g.rng.Normal(0, 0.2),
		Heading:  90,
		Accuracy: acc,
	}
}

// CameraFrame is one dash-camera capture: the platform cares about its
// size and timing, plus a coarse scene description the detection workloads
// consume (number of vehicles/pedestrians actually present, so detector
// accuracy can be scored).
type CameraFrame struct {
	At          time.Duration `json:"at"`
	Seq         int           `json:"seq"`
	Width       int           `json:"width"`
	Height      int           `json:"height"`
	Bytes       int           `json:"bytes"`
	Vehicles    int           `json:"vehicles"`
	Pedestrians int           `json:"pedestrians"`
	Plates      []string      `json:"plates,omitempty"`
}

// Camera produces frames with Poisson-ish scene contents.
type Camera struct {
	rng     *sim.RNG
	width   int
	height  int
	seq     int
	density float64 // mean vehicles per frame
}

// NewCamera returns a dash camera. Density is the mean number of vehicles
// visible per frame.
func NewCamera(width, height int, density float64, rng *sim.RNG) (*Camera, error) {
	if rng == nil {
		return nil, fmt.Errorf("sensors: nil RNG")
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("sensors: camera dimensions must be positive")
	}
	if density < 0 {
		return nil, fmt.Errorf("sensors: negative scene density %v", density)
	}
	return &Camera{rng: rng, width: width, height: height, density: density}, nil
}

// Capture produces the next frame at virtual time t.
func (c *Camera) Capture(t time.Duration) CameraFrame {
	nVehicles := poisson(c.rng, c.density)
	nPed := poisson(c.rng, c.density/3)
	f := CameraFrame{
		At:          t,
		Seq:         c.seq,
		Width:       c.width,
		Height:      c.height,
		Bytes:       int(float64(c.width*c.height) * 1.5 / 10), // ~JPEG 10:1 over YUV420
		Vehicles:    nVehicles,
		Pedestrians: nPed,
	}
	for i := 0; i < nVehicles; i++ {
		f.Plates = append(f.Plates, randomPlate(c.rng))
	}
	c.seq++
	return f
}

func poisson(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's method; scene densities are small so this terminates fast.
	threshold := math.Exp(-mean)
	product := 1.0
	for i := 0; ; i++ {
		product *= rng.Float64()
		if product < threshold || i > 100 {
			return i
		}
	}
}

func randomPlate(rng *sim.RNG) string {
	letters := "ABCDEFGHJKLMNPRSTUVWXYZ"
	b := make([]byte, 7)
	for i := 0; i < 3; i++ {
		b[i] = letters[rng.Intn(len(letters))]
	}
	b[3] = '-'
	for i := 4; i < 7; i++ {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}
