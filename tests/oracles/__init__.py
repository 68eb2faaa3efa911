"""Reference implementations the differential tests compare the library against."""
