package model

import "fmt"

// Profile is the hardware-cost description of a paper workload. The proxy
// model above supplies the statistical behaviour (loss surface, gradients);
// the profile supplies the physical behaviour: how long one batch takes on a
// dedicated reference accelerator and how many parameters cross the wire at
// each synchronization. Parameter counts are the real counts of the paper's
// CNNs; compute times are calibrated so the simulated All-Reduce per-update
// times fall in the regime Table 1 reports.
type Profile struct {
	Name string
	// WireParams is the true parameter count of the paper model; it sets
	// message sizes in the communication cost model.
	WireParams int
	// BatchCompute is the seconds one reference worker needs to compute one
	// mini-batch gradient (forward+backward, batch 256) when it has a whole
	// accelerator to itself.
	BatchCompute float64
	// BytesPerParam is the wire width of one parameter (4 = float32, as in
	// the paper's Gloo deployment).
	BytesPerParam int
}

// WireBytes returns the size of one full model/gradient message.
func (p Profile) WireBytes() int64 {
	return int64(p.WireParams) * int64(p.BytesPerParam)
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	switch {
	case p.WireParams <= 0:
		return fmt.Errorf("model: profile %q needs positive WireParams", p.Name)
	case p.BatchCompute <= 0:
		return fmt.Errorf("model: profile %q needs positive BatchCompute", p.Name)
	case p.BytesPerParam <= 0:
		return fmt.Errorf("model: profile %q needs positive BytesPerParam", p.Name)
	}
	return nil
}

// Profiles for the five CNNs in the paper's evaluation. Compute times encode
// the paper's compute/communication balance: ResNets and DenseNet are
// compute-bound, VGGs are communication-bound (§5.3.2), and DenseNet-121 has
// the largest per-batch compute of the CIFAR trio (Table 1's AR per-update
// times order DenseNet > ResNet-34 > VGG-19 at HL=1).
var (
	ResNet34    = Profile{Name: "resnet34", WireParams: 21_800_000, BatchCompute: 0.410, BytesPerParam: 4}
	VGG19       = Profile{Name: "vgg19", WireParams: 143_700_000, BatchCompute: 0.160, BytesPerParam: 4}
	DenseNet121 = Profile{Name: "densenet121", WireParams: 8_000_000, BatchCompute: 0.800, BytesPerParam: 4}
	ResNet18    = Profile{Name: "resnet18", WireParams: 11_700_000, BatchCompute: 0.210, BytesPerParam: 4}
	VGG16       = Profile{Name: "vgg16", WireParams: 138_400_000, BatchCompute: 0.140, BytesPerParam: 4}
)
