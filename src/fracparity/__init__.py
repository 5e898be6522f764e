"""Risk parity backtesting with a fractal (Hurst-exponent) volatility model."""

__version__ = "0.1.0"
