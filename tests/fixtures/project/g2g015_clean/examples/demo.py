from repro.example_only import demo

print(demo())
