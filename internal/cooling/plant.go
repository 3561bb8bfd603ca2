package cooling

import (
	"fmt"
	"math"
)

// ASHRAE recommended envelope for data-center operation (paper §2.2).
const (
	ASHRAEMinTempC = 20.0
	ASHRAEMaxTempC = 25.0
	ASHRAEMinRH    = 0.30
	ASHRAEMaxRH    = 0.45
)

// PlantConfig describes the heat-rejection plant behind the CRACs: the
// chiller (compressor + pumps) and CRAC fans, plus an optional air-side
// economizer.
type PlantConfig struct {
	// COPNominal is the chiller coefficient of performance at the
	// reference outside temperature: watts of heat removed per watt of
	// compressor power.
	COPNominal float64
	// COPRefC is the outside temperature at which COPNominal holds.
	COPRefC float64
	// COPSlope is the COP loss per °C of outside temperature above the
	// reference (condensers reject heat less efficiently when hot out).
	COPSlope float64
	// COPMin floors the COP on the hottest days.
	COPMin float64
	// FanRatedW is the total CRAC fan power at full airflow.
	FanRatedW float64
	// FanFlowFraction is the current airflow as a fraction of rated;
	// fan power follows the cube law.
	FanFlowFraction float64
	// PumpOverheadFrac adds chilled-water pump power as a fraction of
	// compressor power.
	PumpOverheadFrac float64

	// Economizer enables air-side economization (§2.2: "using outside
	// air to cool data centers directly, rather than relying on energy
	// consuming water chillers").
	Economizer bool
	// EconoMaxTempC is the highest outside temperature at which outside
	// air can fully carry the cooling load.
	EconoMaxTempC float64
	// EconoMinTempC is the lowest usable outside temperature (below it,
	// air must be mixed to avoid undershooting the envelope; still free).
	EconoMinTempC float64
	// EconoMinRH and EconoMaxRH bound the humidity at which outside air
	// is admissible without costly (de)humidification.
	EconoMinRH, EconoMaxRH float64
}

// DefaultPlantConfig is a chilled-water plant without economizer.
func DefaultPlantConfig() PlantConfig {
	return PlantConfig{
		COPNominal:       4.0,
		COPRefC:          15,
		COPSlope:         0.08,
		COPMin:           2.0,
		FanRatedW:        12_000,
		FanFlowFraction:  1.0,
		PumpOverheadFrac: 0.12,
		Economizer:       false,
		EconoMaxTempC:    18,
		EconoMinTempC:    -10,
		EconoMinRH:       0.20,
		EconoMaxRH:       0.80,
	}
}

// Validate checks physical consistency.
func (c PlantConfig) Validate() error {
	switch {
	case c.COPNominal <= 0:
		return fmt.Errorf("cooling: nominal COP %v must be positive", c.COPNominal)
	case c.COPMin <= 0 || c.COPMin > c.COPNominal:
		return fmt.Errorf("cooling: COP floor %v out of (0, %v]", c.COPMin, c.COPNominal)
	case c.COPSlope < 0:
		return fmt.Errorf("cooling: COP slope %v must be non-negative", c.COPSlope)
	case c.FanRatedW < 0:
		return fmt.Errorf("cooling: fan power %v must be non-negative", c.FanRatedW)
	case c.FanFlowFraction <= 0 || c.FanFlowFraction > 1:
		return fmt.Errorf("cooling: fan flow fraction %v out of (0,1]", c.FanFlowFraction)
	case c.PumpOverheadFrac < 0:
		return fmt.Errorf("cooling: pump overhead %v must be non-negative", c.PumpOverheadFrac)
	case c.EconoMinTempC >= c.EconoMaxTempC:
		return fmt.Errorf("cooling: economizer bounds [%v,%v] invalid", c.EconoMinTempC, c.EconoMaxTempC)
	case c.EconoMinRH >= c.EconoMaxRH:
		return fmt.Errorf("cooling: economizer RH bounds [%v,%v] invalid", c.EconoMinRH, c.EconoMaxRH)
	}
	return nil
}

// COP evaluates the chiller coefficient of performance at the given
// outside temperature.
func (c PlantConfig) COP(outsideC float64) float64 {
	cop := c.COPNominal - c.COPSlope*(outsideC-c.COPRefC)
	return math.Max(c.COPMin, math.Min(c.COPNominal, cop))
}

// EconomizerUsable reports whether outside air can fully carry the load.
func (c PlantConfig) EconomizerUsable(outsideC, outsideRH float64) bool {
	return c.Economizer &&
		outsideC >= c.EconoMinTempC && outsideC <= c.EconoMaxTempC &&
		outsideRH >= c.EconoMinRH && outsideRH <= c.EconoMaxRH
}

// PlantPower is the power breakdown of the heat-rejection plant.
type PlantPower struct {
	// CompressorW is the chiller compressor draw.
	CompressorW float64
	// PumpW is the chilled-water pump draw.
	PumpW float64
	// FanW is the CRAC fan draw.
	FanW float64
	// EconomizerActive reports whether outside air carried the load.
	EconomizerActive bool
}

// TotalW sums the plant draw.
func (p PlantPower) TotalW() float64 { return p.CompressorW + p.PumpW + p.FanW }

// Power computes the plant draw needed to remove loadW of heat under the
// given outside conditions. With a usable economizer, the compressor and
// pumps idle and only fans run.
func (c PlantConfig) Power(loadW, outsideC, outsideRH float64) (PlantPower, error) {
	if loadW < 0 {
		return PlantPower{}, fmt.Errorf("cooling: negative load %v", loadW)
	}
	fan := c.FanRatedW * math.Pow(c.FanFlowFraction, 3)
	if c.EconomizerUsable(outsideC, outsideRH) {
		return PlantPower{FanW: fan, EconomizerActive: true}, nil
	}
	comp := loadW / c.COP(outsideC)
	return PlantPower{
		CompressorW: comp,
		PumpW:       comp * c.PumpOverheadFrac,
		FanW:        fan,
	}, nil
}

// PUE computes power-usage effectiveness: total facility power over IT
// power. The paper notes "most data centers have [PUE] close to 2".
func PUE(itW, distributionLossW, coolingW float64) (float64, error) {
	if itW <= 0 {
		return 0, fmt.Errorf("cooling: IT power %v must be positive for PUE", itW)
	}
	if distributionLossW < 0 || coolingW < 0 {
		return 0, fmt.Errorf("cooling: negative overhead power")
	}
	return (itW + distributionLossW + coolingW) / itW, nil
}
