import source

source.use_sources()
