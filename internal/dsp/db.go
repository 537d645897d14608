package dsp

import "math"

// DB converts a linear power ratio to decibels. Non-positive ratios map to
// -Inf, matching the mathematical limit.
func DB(powerRatio float64) float64 {
	if powerRatio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(powerRatio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmpDB converts a linear amplitude ratio to decibels (20 log10).
func AmpDB(ampRatio float64) float64 {
	if ampRatio <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(ampRatio)
}

// AmpFromDB converts decibels to a linear amplitude ratio (10^(dB/20)).
func AmpFromDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// DBmToWatts converts a power level in dBm to watts.
func DBmToWatts(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}
