package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// preRequestGoldenSHA256 pins the byte content of every golden fixture
// that predates the geo-federation experiment family. Each new opt-in
// layer — request-level admission, the closed retry loop, and the
// federated router — must leave every pre-existing experiment
// byte-identical: the machinery is opt-in per experiment, so adding it
// cannot legally perturb an experiment that never wired it. If one of
// these changes intentionally, regenerate with -update and update the
// hash here in the same commit, with the reason in the message.
//
// One such re-pin is on record. When the fleet's serial left-fold was
// retired, every fleet began merging its notification deltas per shard
// (see core.Fleet), which regroups a few float additions. Three values
// moved: fig4's EnergyKWh and MeanPUE and fault-crac's
// Managed.EnergyKWh, the largest by 1.1e-14 relative — eight orders of
// magnitude inside TestGolden's 1e-6 tolerance. Only the fig4.json and
// fault-crac.json hashes changed; every other fixture kept its bytes.
var preRequestGoldenSHA256 = map[string]string{
	"ablate-dc.json":         "ce720da644369646b8f7cc4ee8f8be73be82b64547a3a313cbf5b2dd64201e7e",
	"ablate-forecast.json":   "c46e11317acbf91f05516fe82ec3d8c6ae89de7a246ea86310e309e9ac27ad71",
	"ablate-hysteresis.json": "ff498c71cf3d52c02410f979a907d4dea339f394a259fc0c65e171655f061dac",
	"ablate-ladder.json":     "fea9c49f2fc4ea0425c72c40d8e57da9622a6bbc1839c11941972c4f484ee6f2",
	"animoto.json":           "3e0b742f4325471b8ec90c0c52972edd9e68bc0ec7459c8f3bbf1f04f4bc6e09",
	"capping.json":           "b5f83e309e8db266d332085afb69745e440a491e0a0ae47b68750a82321ded03",
	"consolidate.json":       "6124206359be8d0c30fd55ee1c7acc631f69e7d85217ccd4f8bf868d495e217d",
	"crac.json":              "662e19dbf4240260a4309f0c93a0be896f0c4653ec5c57c6d23a594d7f609b41",
	"distributed.json":       "d5e038da2861131be8742dc3c3c7b8adb138ee75fc3bf97913bf91d022b765bf",
	"dvfs.json":              "2d78e6a2ca5bf82bd4ed356f6b062e1c2b772ffeb7c9bf3b1694d6e640c3b244",
	"fault-crac.json":        "35cf9d5c312cc16a0e4bd1b32dc3ec48889344918ed14db27f782334c2e49937",
	"fault-outage.json":      "708e36122c39b9c4ae2c48f85636c3c66bad93987a94c859ebfa8d3236cdff13",
	"fault-sensor.json":      "1adf98b2a6fe58975fb68eb347d5790a9d311386d9f0b86020985687b18b0a82",
	"fig1.json":              "85059953f3c1e75af0c1d193098df76ea777897b33e5dfce928d19d32c5d6d96",
	"fig2.json":              "508351a724c9901b001bb3ef65eeda205763f0cd31e9eacb21cce61dadd94f81",
	"fig3.json":              "c7a97a2c6698fa87cdb06ab9882b3995792a31e5ea41cf199bf1c92621c86f05",
	"fig4.json":              "0a3e140d1d8b9265806b18ab0be8fa39a8e67c78a2fe6876bbf367ece7ee26ee",
	"geo.json":               "4d37120bde4171e01109180ddad670e1e876a068cd268eb2596963940f3dd26f",
	"hetero.json":            "94d852845fb26c57666341caffaf8889e5b8a096be696ca25183412016e137cf",
	"idle60.json":            "5380c24653aa73270b46f73535faee87cef86223378e42d8c51c9b56608e1762",
	"interfere.json":         "340b5179f7eed3c0d46e6d3d478bbcdb7c0de0f19e451c230111ef4a7b354f39",
	"oversub.json":           "18bb6bd01c54b8d74e313dc0851adddff3fb7848721f1412fcc10afbb591f514",
	"parking.json":           "3a53f9c39d2fc86870fdd3e4c946b3cb690d41b4c6a814d197d3e6c14e25fb50",
	"pathology.json":         "73cf2cf5813cc520d242356ce44de1221063c0b549ac7f3153e36d4c9f4638fd",
	"pue2.json":              "985314d5c4bfd531821120ea05f1d0ecabb430c448318b1141b547881f91eace",
	"retry-budget.json":      "a70ae2c1457d832bb31bd4a2bfe67ae69bfb20475347b1c0b875e8f36c02642a",
	"retry-storm.json":       "5fb714f76fe61653abecafe35cc491f26a67f636070ebe16e0e61ef4280eac50",
	"fault-rack.json":        "03c36428837334373085f36bc0d4c891d7c9321a655d6045d02e185aa5f57dde",
	"sensornet.json":         "fdf334734b4c3ce3eed3edabbd753a7b95e343e8be6a7cb11d6163ed63049b2b",
	"telemetry.json":         "395bc553980c1b09abae532db32f3e05859b1109afb100b7745aff89da81efa6",
	"tier2.json":             "9aaf6ebe7cafc1714eb291f27afff5635bcec09f89366dbc429d71b7fda119f5",
	"tiers.json":             "73938b7d1018ff7f3868b4e976affdf78c9a30574152590eeddf7f158212a997",
	"users-flash.json":       "c1a193346c53c63baa5a2b5e1b18e355a5b40b87f26bd3af8ba46057d570a97d",
	"users-qmin.json":        "70cd8c37e7b87a1ddd59507e2770430314968d456b11744aacc57c9f646ac258",
	"users-surge.json":       "dccf919852bf24f2579722bd017c00dc94b3090f1bd4dafed0f56bc3cd5f80e3",
}

// TestFluidGoldensByteIdentical is the differential pin: the fixtures of
// every pre-existing experiment must remain byte-for-byte what they were
// before the newest opt-in family landed.
func TestFluidGoldensByteIdentical(t *testing.T) {
	for name, want := range preRequestGoldenSHA256 {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: fixture bytes changed (sha256 %s, pinned %s) — fluid-only goldens must stay byte-identical",
				name, got, want)
		}
	}
}
