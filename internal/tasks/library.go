package tasks

import "repro/internal/hardware"

// Table-I calibration. The paper measured these on one 2.4 GHz AWS vCPU,
// whose catalog entry runs Vision and DNNInference work at 10 GFLOP/s.
// Each workload's cost constant is therefore latency × 10 GFLOP/s, which
// reproduces Table I exactly and fixes the workloads' relative weight
// (DNN ≈ 51× Haar ≈ 1030× lane detection) everywhere else.
const (
	// LaneDetectionGFLOP reproduces 13.57 ms on the Table-I host.
	LaneDetectionGFLOP = 0.1357
	// VehicleDetectionHaarGFLOP reproduces 269.46 ms.
	VehicleDetectionHaarGFLOP = 2.6946
	// VehicleDetectionDNNGFLOP reproduces 13 971.98 ms.
	VehicleDetectionDNNGFLOP = 139.7198
)

// Frame sizes for the workload library (bytes). A 720p dash-cam frame at
// the sensors package's ~10:1 JPEG model.
const (
	frameBytes720p = 138_240
	roiBytes       = 30_000
	plateBytes     = 4_000
	resultBytes    = 256
)

// LaneDetection returns the classic-vision lane detector as a single task.
func LaneDetection() *Task {
	return &Task{
		ID: "lane-detect", Name: "Lane Detection",
		Class: hardware.Vision, GFLOP: LaneDetectionGFLOP,
		InputBytes: frameBytes720p, OutputBytes: resultBytes, MemoryMB: 64,
	}
}

// VehicleDetectionHaar returns the Haar-cascade vehicle detector.
func VehicleDetectionHaar() *Task {
	return &Task{
		ID: "vehicle-detect-haar", Name: "Vehicle Detection (Haar)",
		Class: hardware.Vision, GFLOP: VehicleDetectionHaarGFLOP,
		InputBytes: frameBytes720p, OutputBytes: resultBytes, MemoryMB: 128,
	}
}

// VehicleDetectionDNN returns the TensorFlow-style DNN vehicle detector.
func VehicleDetectionDNN() *Task {
	return &Task{
		ID: "vehicle-detect-dnn", Name: "Vehicle Detection (TensorFlow)",
		Class: hardware.DNNInference, GFLOP: VehicleDetectionDNNGFLOP,
		InputBytes: frameBytes720p, OutputBytes: resultBytes, MemoryMB: 1024,
	}
}

// Table1Workloads returns the three Table-I workloads in the paper's order.
func Table1Workloads() []*Task {
	return []*Task{LaneDetection(), VehicleDetectionHaar(), VehicleDetectionDNN()}
}

// ALPR returns the three-stage license-plate recognition pipeline the paper
// cites from Firework [17] and uses for the kidnapper-search (mobile A3)
// polymorphic service: motion detection → plate detection → plate number
// recognition, each stage placeable on a different tier.
func ALPR() *DAG {
	return &DAG{
		Name: "alpr",
		Tasks: []*Task{
			{
				ID: "motion-detect", Name: "Motion Detection",
				Class: hardware.Vision, GFLOP: 0.08,
				InputBytes: frameBytes720p, OutputBytes: roiBytes, MemoryMB: 64,
			},
			{
				ID: "plate-detect", Name: "License Plate Detection",
				Class: hardware.Vision, GFLOP: 1.2,
				InputBytes: roiBytes, OutputBytes: plateBytes, MemoryMB: 128,
				Deps: []string{"motion-detect"},
			},
			{
				ID: "plate-recognize", Name: "License Plate Recognition",
				Class: hardware.DNNInference, GFLOP: 6.5,
				InputBytes: plateBytes, OutputBytes: resultBytes, MemoryMB: 256,
				Deps: []string{"plate-detect"},
			},
		},
	}
}

// PedestrianAlert returns the safety-critical ADAS pipeline: detection plus
// an alert-decision step, used as a high-priority EdgeOSv service.
func PedestrianAlert() *DAG {
	return &DAG{
		Name: "pedestrian-alert",
		Tasks: []*Task{
			{
				ID: "ped-detect", Name: "Pedestrian Detection",
				Class: hardware.DNNInference, GFLOP: 8.0,
				InputBytes: frameBytes720p, OutputBytes: 1024, MemoryMB: 512,
			},
			{
				ID: "alert-decide", Name: "Alert Decision",
				Class: hardware.General, GFLOP: 0.01,
				InputBytes: 1024, OutputBytes: resultBytes, MemoryMB: 16,
				Deps: []string{"ped-detect"},
			},
		},
	}
}

// Diagnostics returns the real-time diagnostics pipeline (paper §II-A):
// collect OBD window → feature extraction → fault prediction.
func Diagnostics() *DAG {
	return &DAG{
		Name: "diagnostics",
		Tasks: []*Task{
			{
				ID: "obd-window", Name: "OBD Window Assembly",
				Class: hardware.General, GFLOP: 0.005,
				InputBytes: 32_768, OutputBytes: 16_384, MemoryMB: 8,
			},
			{
				ID: "feature-extract", Name: "Feature Extraction",
				Class: hardware.Vision, GFLOP: 0.12,
				InputBytes: 16_384, OutputBytes: 2_048, MemoryMB: 32,
				Deps: []string{"obd-window"},
			},
			{
				ID: "fault-predict", Name: "Fault Prediction",
				Class: hardware.DNNInference, GFLOP: 0.4,
				InputBytes: 2_048, OutputBytes: resultBytes, MemoryMB: 64,
				Deps: []string{"feature-extract"},
			},
		},
	}
}

// InfotainmentDecode returns the in-vehicle infotainment workload (§II-C):
// a downloaded video chunk decoded and enhanced locally.
func InfotainmentDecode() *DAG {
	return &DAG{
		Name: "infotainment-decode",
		Tasks: []*Task{
			{
				ID: "chunk-decode", Name: "Video Chunk Decode",
				Class: hardware.Codec, GFLOP: 2.4,
				InputBytes: 1_450_000, OutputBytes: 6_220_800, MemoryMB: 256,
			},
			{
				ID: "enhance", Name: "Quality Enhancement",
				Class: hardware.DNNInference, GFLOP: 3.0,
				InputBytes: 6_220_800, OutputBytes: 6_220_800, MemoryMB: 512,
				Deps: []string{"chunk-decode"},
			},
		},
	}
}

// PBEAMRefine returns the on-vehicle pBEAM transfer-learning step (§IV-E):
// fine-tuning the compressed common model on local driving data.
func PBEAMRefine() *DAG {
	return &DAG{
		Name: "pbeam-refine",
		Tasks: []*Task{
			{
				ID: "prepare-batch", Name: "Driving Data Batch Preparation",
				Class: hardware.General, GFLOP: 0.02,
				InputBytes: 262_144, OutputBytes: 131_072, MemoryMB: 32,
			},
			{
				ID: "fine-tune", Name: "Transfer Learning Fine-Tune",
				Class: hardware.DNNTraining, GFLOP: 25,
				InputBytes: 131_072, OutputBytes: 4_194_304, MemoryMB: 1024,
				Deps: []string{"prepare-batch"},
			},
		},
	}
}

// SensorFusion returns the level-3+ perception pipeline the paper's ADAS
// section implies: camera detection and LiDAR clustering run in parallel,
// their outputs fuse, and a trajectory planner consumes the fused scene.
// The parallel branches are what heterogeneous scheduling exploits.
func SensorFusion() *DAG {
	return &DAG{
		Name: "sensor-fusion",
		Tasks: []*Task{
			{
				ID: "camera-detect", Name: "Camera Object Detection",
				Class: hardware.DNNInference, GFLOP: 8.0,
				InputBytes: frameBytes720p, OutputBytes: 4_096, MemoryMB: 512,
			},
			{
				ID: "lidar-cluster", Name: "LiDAR Point Clustering",
				Class: hardware.Vision, GFLOP: 2.5,
				InputBytes: 921_600, OutputBytes: 8_192, MemoryMB: 256,
			},
			{
				ID: "fuse", Name: "Camera/LiDAR Fusion",
				Class: hardware.General, GFLOP: 0.15,
				InputBytes: 12_288, OutputBytes: 6_144, MemoryMB: 64,
				Deps: []string{"camera-detect", "lidar-cluster"},
			},
			{
				ID: "plan", Name: "Trajectory Planning",
				Class: hardware.General, GFLOP: 0.4,
				InputBytes: 6_144, OutputBytes: 1_024, MemoryMB: 64,
				Deps: []string{"fuse"},
			},
		},
	}
}

// Library returns every named DAG workload, keyed by name.
func Library() map[string]*DAG {
	dags := []*DAG{ALPR(), PedestrianAlert(), Diagnostics(), InfotainmentDecode(), PBEAMRefine(), SensorFusion()}
	out := make(map[string]*DAG, len(dags))
	for _, d := range dags {
		out[d.Name] = d
	}
	return out
}
