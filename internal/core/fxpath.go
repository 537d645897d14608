package core

// Fixed-point datapath integration. With Config.Datapath == DatapathFixed
// the demodulator keeps rendering, calibrating, and detecting preambles in
// float — those stages model analog voltages — but hands the payload decode
// to internal/fxp: the envelope window is quantized through an ADC at
// Config.ADCBits and decoded in saturating Q1.15 integer arithmetic, with a
// per-operation cycle ledger the pipeline converts to MCU energy.

// syncFx pushes the current float calibration into the fixed-point decoder:
// the ADC full scale (anchored a quarter above the calibrated peak so
// signal excursions keep headroom), the comparator thresholds as ADC codes,
// the falling-edge bias in Q1.15, and — once per calibration lineage — the
// quantized correlation templates. Called wherever the float side
// (re)calibrates, so offline tables, AGC windows, and prewarmed stream
// masters all keep the integer twin coherent.
func (d *Demodulator) syncFx() {
	if d.fx == nil {
		return
	}
	fullScale := 1.25 * d.amax
	if !(fullScale > 0) {
		fullScale = 1
	}
	d.fx.SetThresholds(d.comparator.High, d.comparator.Low, fullScale)
	d.fx.SetPeakBias(d.peakBias)
	if d.cfg.Mode == ModeFull && d.templates != nil && !d.fx.HasTemplates() {
		if err := d.fx.SetTemplates(d.templates); err != nil {
			// buildTemplates renders equal-length, positive templates; a
			// rejected bank means a core invariant broke, not bad input.
			panic("core: fixed-point template bank: " + err.Error())
		}
	}
}

// TakeFxpCycles returns and clears the cycle count the fixed-point datapath
// accumulated since the last call, under its cycle model. It reports 0 when
// the float datapath is active — the hook pipelines use to aggregate MCU
// load without caring which datapath ran.
func (d *Demodulator) TakeFxpCycles() uint64 {
	if d.fx == nil {
		return 0
	}
	return d.fx.TakeCycles()
}
