package predict_test

import (
	"fmt"

	"enblogue/internal/predict"
)

func ExamplePredictor() {
	// Holt's double exponential smoothing learns a linear trend, so a
	// steadily growing correlation is NOT a shift — only the unexpected is.
	p := predict.New(predict.KindHolt, predict.Config{Alpha: 0.5, Beta: 0.3})
	for i := 0; i < 20; i++ {
		p.Observe(float64(i) * 0.01) // correlation creeping up by 0.01/tick
	}
	forecast, _ := p.Predict()
	fmt.Printf("forecast after trend: %.3f (actual next: 0.200)\n", forecast)

	fmt.Printf("error on sudden jump: %.2f\n", 0.90-forecast) // a sudden jump instead
	// Output:
	// forecast after trend: 0.200 (actual next: 0.200)
	// error on sudden jump: 0.70
}
