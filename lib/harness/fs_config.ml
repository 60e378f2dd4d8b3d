include Stacks.Fs_config
