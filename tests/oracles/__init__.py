"""Reference implementations the array-native code is tested against."""
